package seqabcast

import (
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// steadyLoad A-broadcasts one message every interval, the origins taking
// turns, until left runs out. It re-arms one event record, so the load
// itself allocates nothing.
type steadyLoad struct {
	eng      *sim.Engine
	procs    []*Process
	interval time.Duration
	left     int
	sent     int
	ev       sim.Event
	fire     func()
}

func (l *steadyLoad) broadcast() {
	l.procs[l.sent%len(l.procs)].ABroadcast(nil)
	l.sent++
	if l.left--; l.left > 0 {
		l.eng.Rearm(&l.ev, l.eng.Now().Add(l.interval), l.fire)
	}
}

// send queues k more broadcasts, the first one interval from now, and runs
// the engine until every process delivered all of them.
func (l *steadyLoad) send(k int, delivered *int) {
	l.left = k
	l.eng.Rearm(&l.ev, l.eng.Now().Add(l.interval), l.fire)
	want := l.sent + k
	for *delivered < want*len(l.procs) {
		l.eng.RunUntil(l.eng.Now().Add(time.Second))
	}
}

// BenchmarkSequencer times one ordered message of a steady uniform n=7 GM
// cluster, the paper's largest group, at 700 A-broadcasts per second over
// the full simulated stack: an op is one message broadcast, sequenced,
// acknowledged and delivered at all seven processes, with the network and
// the event queue it takes. The cluster is warmed up first, so pools and
// tables are at their steady size and allocs/op is the steady state's.
func BenchmarkSequencer(b *testing.B) {
	const n, warmup = 7, 2000
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(n), fd.QoS{}, sim.NewRand(1))
	delivered := 0
	l := &steadyLoad{eng: eng, procs: make([]*Process, n), interval: time.Second / 700}
	l.fire = l.broadcast
	for i := range l.procs {
		l.procs[i] = New(sys.Proc(proto.PID(i)), Config{
			Uniform: true,
			Deliver: func(proto.MsgID, any) { delivered++ },
		})
		sys.SetHandler(proto.PID(i), l.procs[i])
	}
	sys.Start()
	l.send(warmup, &delivered)
	b.ReportAllocs()
	b.ResetTimer()
	l.send(b.N, &delivered)
}
