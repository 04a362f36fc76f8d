package experiment

// RepSeed exposes the replication-seed derivation to external tests.
var RepSeed = repSeed
