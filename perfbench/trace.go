package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/perf"
)

// phaseLayers maps the pipeline's own phase timers (internal/perf) to the
// layer each one belongs to. Parses run lazily inside approx and static,
// and a cached corpus evaluation runs whole phases inside one experiments
// call, so a span's phase-timer deltas are charged to these layers and
// taken out of the span's own self time.
var phaseLayers = []struct{ phase, layer string }{
	{"parse", "parse"},
	{"approx", "approx"},
	{"baseline", "static"},
	{"extended", "static"},
	{"dyncg", "dyncg"},
}

type phaseMS [5]float64

func readPhases() phaseMS {
	snap := perf.Global().Snapshot()
	var p phaseMS
	for i, pl := range phaseLayers {
		p[i] = snap.PhaseMS[pl.phase]
	}
	return p
}

// span is one timed call into a layer. Parent is the index of the
// enclosing span (-1 for an op's root span); Phases holds the phase-timer
// time that elapsed inside the span, children included. Only one op is in
// flight, so those deltas belong to this span.
type span struct {
	Name       string
	Op         int
	Parent     int
	Start, End time.Duration
	Phases     phaseMS
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so untraced runs pay one nil check per layer call.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	base  []phaseMS
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent})
	t.stack = append(t.stack, i)
	t.base = append(t.base, readPhases())
	t.spans[i].Start = time.Since(t.epoch)
	f()
	t.spans[i].End = time.Since(t.epoch)
	top := len(t.stack) - 1
	now := readPhases()
	for k := range now {
		t.spans[i].Phases[k] = now[k] - t.base[top][k]
	}
	t.stack, t.base = t.stack[:top], t.base[:top]
}

// opSpan runs one op as a root span named "op" with the given op id.
func (t *tracer) opSpan(op int, f func()) {
	if t != nil {
		t.op = op
	}
	t.do("op", f)
}

// layerTimes charges every span's self time (its duration minus its
// children's) to the layer it names, in milliseconds, after moving the
// phase-timer time inside it to the phase's layer. Root "op" spans and
// "experiments" spans are charged to "driver": the glue between layer
// calls. It also returns the summed duration of the root spans.
func (t *tracer) layerTimes() (layers map[string]float64, opMS float64) {
	childDur := make([]time.Duration, len(t.spans))
	childPh := make([]phaseMS, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.End - s.Start
			for k := range s.Phases {
				childPh[s.Parent][k] += s.Phases[k]
			}
		}
	}
	layers = map[string]float64{}
	for i, s := range t.spans {
		self := float64(s.End-s.Start-childDur[i]) / 1e6
		name := s.Name
		switch name {
		case "op":
			opMS += float64(s.End-s.Start) / 1e6
			name = "driver"
		case "experiments":
			name = "driver"
		}
		for k, pl := range phaseLayers {
			if pl.layer == name {
				continue // the span already is that layer
			}
			d := s.Phases[k] - childPh[i][k]
			layers[pl.layer] += d
			self -= d
		}
		layers[name] += self
	}
	return layers, opMS
}

// write saves the spans as Chrome trace-event JSON (viewable in Perfetto or
// chrome://tracing): one track per op.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"op": s.Op, "parent": s.Parent}
		for k, pl := range phaseLayers {
			if s.Phases[k] != 0 {
				args[pl.phase+"_ms"] = s.Phases[k]
			}
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Op, Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
