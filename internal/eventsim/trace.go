package eventsim

// TraceEntry is one recorded landmark in a run: a label stamped with
// the virtual time and the number of events processed when it was
// recorded. Because the engine is deterministic, replaying the same
// scenario at the same seed reproduces the identical entry sequence —
// which is what lets an audit shrink a failing fault script by
// replaying subsets and comparing outcomes.
type TraceEntry struct {
	// At is the virtual time of the mark.
	At Time
	// Seq is Engine.Processed() at the mark — the exact position in
	// the event stream.
	Seq uint64
	// Label names what happened (fault layers record the actions they
	// execute, e.g. "fault:crash 7").
	Label string
}

// StartTrace begins (or restarts) trace recording. Recording only
// costs when Mark is actually called; the event hot path is untouched.
func (e *Engine) StartTrace() {
	e.tracing = true
	e.trace = e.trace[:0]
}

// StopTrace ends recording and returns the entries recorded so far.
func (e *Engine) StopTrace() []TraceEntry {
	e.tracing = false
	return append([]TraceEntry(nil), e.trace...)
}

// Mark records a landmark in the current trace. No-op unless a trace
// was started.
func (e *Engine) Mark(label string) {
	if !e.tracing {
		return
	}
	e.trace = append(e.trace, TraceEntry{At: e.now, Seq: e.processed, Label: label})
}

// TraceLog returns a copy of the entries recorded so far without
// stopping the trace.
func (e *Engine) TraceLog() []TraceEntry {
	return append([]TraceEntry(nil), e.trace...)
}
