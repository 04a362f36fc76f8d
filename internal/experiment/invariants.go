package experiment

import (
	"errors"
	"fmt"

	"repro/internal/proto"
)

// Invariants checks every replication it is attached to against the
// atomic broadcast specification as proto.History states it: uniform
// integrity and pairwise total order (in groups mode, atomic multicast's
// order on shared destinations). The pipeline installs each replication's
// History as its Core.History, which the Core feeds, rejoins included.
//
// List its Observer method in Config.Observers, at most once per Config,
// and call Err after the run. The zero value is ready for use.
type Invariants struct {
	reps repRegistry[*proto.History]
}

// Observer is the ObserverFactory of the checker.
func (v *Invariants) Observer(point, rep int, cfg Config) Observer {
	h := proto.NewHistory(cfg.N)
	v.reps.register(point, rep, h)
	return history{h}
}

// Err runs the order pass over every replication observed since the last
// call and returns their findings in canonical (point, replication) order,
// nil when there is none. It forgets the replications.
func (v *Invariants) Err() error {
	var errs []error
	for _, r := range v.reps.sorted() {
		if err := r.v.Check(proto.Order, nil); err != nil {
			errs = append(errs, fmt.Errorf("point %d replication %d: %w", r.point, r.rep, err))
		}
	}
	v.reps.drop()
	return errors.Join(errs...)
}

// history is the observer Invariants attaches: the pipeline installs h as
// the replication's Core.History instead of calling the observer.
type history struct{ h *proto.History }

func (history) ObserveDelivery(Delivery) {}
