package obs

import (
	"context"
	"sync"
	"time"
)

// Event is one live job notification: a training progress sample, a
// lifecycle state change, or a mid-flight plan switch. Seq is contiguous
// per job starting at 0; consumers resume a stream by passing the last Seq
// they saw.
type Event struct {
	Seq      int     `json:"seq"`
	Type     string  `json:"type"` // "progress" | "state" | "switch"
	State    string  `json:"state,omitempty"`
	Plan     string  `json:"plan,omitempty"`
	Iter     int     `json:"iter,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	FittedA  float64 `json:"fitted_a,omitempty"`
	EtaIters float64 `json:"eta_iters,omitempty"`
	TsMillis int64   `json:"ts_millis"`
}

// EventLog is a bounded, replayable event stream with blocking reads — the
// backing store of the /v1/jobs/{id}/events endpoint. It retains the last
// capacity events (so late subscribers replay recent history), assigns
// sequence numbers and timestamps on Append, and wakes all Wait-ers on
// every change. Close appends a terminal state event and ends the stream;
// subsequent Appends are dropped and Wait never blocks again.
type EventLog struct {
	mu sync.Mutex
	// events is a fixed ring of the last cap events: it grows to cap, then
	// each push overwrites the oldest, events[head].
	events []Event
	head   int
	seq    int
	closed bool
	wake   chan struct{}
	cap    int
}

// NewEventLog returns an event log retaining the last capacity events
// (<=0 means 1024).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &EventLog{wake: make(chan struct{}), cap: capacity}
}

// Append stamps ev with the next sequence number and the current wall
// clock, stores it, and wakes waiters. Appends after Close (or on a nil
// log) are dropped.
func (l *EventLog) Append(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.push(ev)
	l.mu.Unlock()
}

// Close appends a final "state" event carrying finalState and seals the
// stream: every current and future Wait returns immediately with
// closed=true once it has drained.
func (l *EventLog) Close(finalState string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.push(Event{Type: "state", State: finalState})
	l.closed = true
	l.mu.Unlock()
}

// push appends under l.mu and broadcasts.
func (l *EventLog) push(ev Event) {
	ev.Seq = l.seq
	l.seq++
	ev.TsMillis = time.Now().UnixMilli()
	if len(l.events) < l.cap {
		l.events = append(l.events, ev)
	} else {
		l.events[l.head] = ev
		l.head = (l.head + 1) % l.cap
	}
	close(l.wake)
	l.wake = make(chan struct{})
}

// since returns a copy of the retained events with Seq > after, in Seq
// order.
func (l *EventLog) since(after int) []Event {
	n := len(l.events)
	skip := max(after+1-(l.seq-n), 0) // l.seq-n is the oldest retained Seq
	if skip >= n {
		return nil
	}
	out := make([]Event, 0, n-skip)
	start := (l.head + skip) % n
	out = append(out, l.events[start:min(start+n-skip, n)]...)
	return append(out, l.events[:n-skip-len(out)]...)
}

// Closed reports whether the stream has been sealed (a nil log is closed).
func (l *EventLog) Closed() bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Wait returns the events with Seq > after, blocking until at least one
// exists, the stream closes, or ctx is done. A nil error with an empty
// slice is only possible on a closed stream the caller has fully drained.
func (l *EventLog) Wait(ctx context.Context, after int) (evs []Event, closed bool, err error) {
	if l == nil {
		return nil, true, nil
	}
	for {
		l.mu.Lock()
		evs = l.since(after)
		closed = l.closed
		wake := l.wake
		l.mu.Unlock()
		if len(evs) > 0 || closed {
			return evs, closed, nil
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-wake:
		}
	}
}
