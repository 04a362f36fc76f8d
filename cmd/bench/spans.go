package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the benchmark's own making: a workload,
// its set-up, a pass, a replication and its construct/simulate halves, a
// merge, a drive. Spans are recorded around the calls into the program,
// never inside it.
type span struct {
	Name       string
	ID, Parent int // Parent is 0 at the root
	// Pass is the id shared by every span of one pass, 0 outside passes.
	Pass       int
	Start, End time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps spans in memory until the command exits.
type spanLog struct {
	spans []span
}

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent, pass int, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Pass: pass, Start: start, End: end})
	return id
}

// open reserves an id for a span whose children finish before it does;
// close it with the returned function.
func (l *spanLog) open(name string, parent, pass int) (id int, done func()) {
	id = l.add(name, parent, pass, time.Now(), time.Time{})
	return id, func() { l.spans[id-1].End = time.Now() }
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores the spans as Chrome trace-event JSON. All spans share one
// lane: traced passes run on one worker, so nesting is by containment.
func (l *spanLog) write(path string) error {
	if len(l.spans) == 0 {
		return nil
	}
	epoch := l.spans[0].Start
	events := make([]chromeEvent, len(l.spans))
	for i, s := range l.spans {
		events[i] = chromeEvent{
			Name: s.Name,
			Ph:   "X",
			Ts:   float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur:  float64(s.dur()) / float64(time.Microsecond),
			Pid:  1,
			Tid:  1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "pass": s.Pass},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
