// Package schedstat is the scheduler observability layer: a streaming
// structured trace format (JSONL on the wire, Chrome/Perfetto trace_event
// on export) and per-task/per-CPU accounting in the spirit of Linux's
// /proc/schedstat — run time, runnable-wait (scheduling latency), block
// time, slice counts, migrations — fed entirely through the kernel's
// Tracer hooks, plus the text Gantt timeline of the paper's Figure 1. With
// no tracer configured the kernel's hot path is untouched; with the
// streaming writer attached, long runs cost a bounded reusable buffer
// however long they are.
//
// The JSONL encoding is canonical: for every event kind there is exactly
// one byte representation (fixed key order, fixed field set, integer
// nanosecond times). Canonical bytes are what make golden-trace regression
// tests, byte-stable read/write round trips, and cross-run `tracer diff`
// meaningful.
package schedstat

import (
	"fmt"
	"strconv"
)

// Event kinds, the `ev` field of each JSONL record.
const (
	KindSwitch  = "switch"
	KindWake    = "wake"
	KindMigrate = "migrate"
	KindFork    = "fork"
	KindExit    = "exit"
	KindMark    = "mark"
)

// Event is one structured trace record. Which fields are meaningful depends
// on Ev; ReadTrace zeroes the rest so parsed events compare cleanly:
//
//	switch:  T, CPU, Prev, PID, PState, Next, NID
//	wake:    T, Task, TID, CPU
//	migrate: T, Task, TID, From, To, Kind
//	fork:    T, Task, TID, CPU, Policy
//	exit:    T, Task, TID
//	mark:    T, Task, TID, Label
type Event struct {
	Ev string `json:"ev"`
	T  int64  `json:"t"` // virtual time, integer nanoseconds

	CPU  int    `json:"cpu"`
	Task string `json:"task"`
	TID  int    `json:"tid"`

	Prev   string `json:"prev"`
	PID    int    `json:"pid"`
	PState string `json:"pstate"` // prev's state at switch-out: runnable|sleeping|dead
	Next   string `json:"next"`
	NID    int    `json:"nid"`

	From int    `json:"from"`
	To   int    `json:"to"`
	Kind string `json:"kind"` // migrate cause: fork|wake|balance

	Policy string `json:"policy"`
	Label  string `json:"label"`
}

// AppendJSONString appends s as a JSON string literal. The escaping is
// minimal and fixed — `"`, `\`, and control bytes only — so that a string
// has exactly one encoding (encoding/json's HTML-escaping variants would
// re-encode `<` differently from raw bytes). Exported together with
// AppendKeyStr/AppendKeyInt as the canonical-JSONL building blocks other
// journaled formats (internal/simq) share.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(b, '"')
}

// AppendKeyStr appends `,"key":"v"` with canonical string escaping.
func AppendKeyStr(b []byte, key, v string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return AppendJSONString(b, v)
}

// AppendKeyInt appends `,"key":v` with the integer in base 10.
func AppendKeyInt(b []byte, key string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

// AppendJSONL appends the canonical one-line JSON encoding of e, including
// the trailing newline. It allocates only when b needs to grow.
func (e Event) AppendJSONL(b []byte) []byte {
	b = append(b, `{"ev":`...)
	b = AppendJSONString(b, e.Ev)
	b = AppendKeyInt(b, "t", e.T)
	switch e.Ev {
	case KindSwitch:
		b = AppendKeyInt(b, "cpu", int64(e.CPU))
		b = AppendKeyStr(b, "prev", e.Prev)
		b = AppendKeyInt(b, "pid", int64(e.PID))
		b = AppendKeyStr(b, "pstate", e.PState)
		b = AppendKeyStr(b, "next", e.Next)
		b = AppendKeyInt(b, "nid", int64(e.NID))
	case KindWake:
		b = AppendKeyStr(b, "task", e.Task)
		b = AppendKeyInt(b, "tid", int64(e.TID))
		b = AppendKeyInt(b, "cpu", int64(e.CPU))
	case KindMigrate:
		b = AppendKeyStr(b, "task", e.Task)
		b = AppendKeyInt(b, "tid", int64(e.TID))
		b = AppendKeyInt(b, "from", int64(e.From))
		b = AppendKeyInt(b, "to", int64(e.To))
		b = AppendKeyStr(b, "kind", e.Kind)
	case KindFork:
		b = AppendKeyStr(b, "task", e.Task)
		b = AppendKeyInt(b, "tid", int64(e.TID))
		b = AppendKeyInt(b, "cpu", int64(e.CPU))
		b = AppendKeyStr(b, "policy", e.Policy)
	case KindExit:
		b = AppendKeyStr(b, "task", e.Task)
		b = AppendKeyInt(b, "tid", int64(e.TID))
	case KindMark:
		b = AppendKeyStr(b, "task", e.Task)
		b = AppendKeyInt(b, "tid", int64(e.TID))
		b = AppendKeyStr(b, "label", e.Label)
	}
	return append(b, '}', '\n')
}

// String renders the canonical encoding without the newline, for error
// messages and diffs.
func (e Event) String() string {
	b := e.AppendJSONL(nil)
	return string(b[:len(b)-1])
}

// normalize zeroes every field that is not part of e's kind, so events
// parsed from hand-written or padded JSON compare equal to the events the
// writer would produce. It reports an error for unknown kinds.
func (e *Event) normalize() error {
	keep := *e
	*e = Event{Ev: keep.Ev, T: keep.T}
	switch keep.Ev {
	case KindSwitch:
		e.CPU, e.Prev, e.PID, e.PState = keep.CPU, keep.Prev, keep.PID, keep.PState
		e.Next, e.NID = keep.Next, keep.NID
	case KindWake:
		e.Task, e.TID, e.CPU = keep.Task, keep.TID, keep.CPU
	case KindMigrate:
		e.Task, e.TID, e.From, e.To, e.Kind = keep.Task, keep.TID, keep.From, keep.To, keep.Kind
	case KindFork:
		e.Task, e.TID, e.CPU, e.Policy = keep.Task, keep.TID, keep.CPU, keep.Policy
	case KindExit:
		e.Task, e.TID = keep.Task, keep.TID
	case KindMark:
		e.Task, e.TID, e.Label = keep.Task, keep.TID, keep.Label
	default:
		return fmt.Errorf("schedstat: unknown event kind %q", keep.Ev)
	}
	return nil
}

// Marshal renders a whole event stream in canonical JSONL.
func Marshal(evs []Event) []byte {
	var b []byte
	for _, e := range evs {
		b = e.AppendJSONL(b)
	}
	return b
}
