package experiment

import (
	"errors"
	"fmt"

	"repro/internal/proto"
	"repro/internal/sim"
)

// Invariants is an observer that checks every replication it is attached
// to against the atomic broadcast specification as proto.History states
// it: uniform integrity and pairwise total order (in groups mode, atomic
// multicast's order on shared destinations). A recovered process of a
// stack that rejoins is a fresh incarnation, which delivers the prefix
// again; integrity and order hold per incarnation.
//
// List its Observer method in Config.Observers and call Err after the run.
// The zero value is ready for use.
type Invariants struct {
	reps repRegistry[*invariantsRep]
}

// Observer is the ObserverFactory of the checker.
func (v *Invariants) Observer(point, rep int, cfg Config) Observer {
	r := &invariantsRep{proto.NewHistory(cfg.N), stackOf(cfg.Algorithm).rejoins}
	v.reps.register(point, rep, r)
	return r
}

// Err runs the order pass over every replication observed since the last
// call and returns their findings in canonical (point, replication) order,
// nil when there is none. It forgets the replications.
func (v *Invariants) Err() error {
	var errs []error
	for _, r := range v.reps.sorted() {
		if err := r.v.h.Check(proto.Order, nil); err != nil {
			errs = append(errs, fmt.Errorf("point %d replication %d: %w", r.point, r.rep, err))
		}
	}
	v.reps.drop()
	return errors.Join(errs...)
}

// invariantsRep feeds one replication's history, on its goroutine.
type invariantsRep struct {
	h       *proto.History
	rejoins bool
}

func (r *invariantsRep) ObserveBroadcast(b Broadcast) { r.h.Broadcast(b.ID) }
func (r *invariantsRep) ObserveDelivery(d Delivery)   { r.h.Deliver(d.Process, d.ID) }

func (r *invariantsRep) ObservePlan(_ sim.Time, ev PlanEvent) {
	if rec, ok := ev.(Recover); ok && r.rejoins {
		r.h.Restart(rec.P)
	}
}
