package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"

	"repro/internal/obs"
)

// span is one complete event of an exported trace, in seconds.
type span struct {
	name     string
	lane     int
	laneName string
	t0, t1   float64
	args     map[string]float64
}

// spans is a traced operation's events. Each per-layer time is derived from
// the spans the program already emits; the benchmark adds none.
type spans []span

// readTrace exports the tracer to memory and decodes it.
func readTrace(tr *obs.Tracer) (spans, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		return nil, err
	}
	lanes := make(map[int]string)
	for _, e := range file.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			lanes[e.Tid], _ = e.Args["name"].(string)
		}
	}
	var ss spans
	for _, e := range file.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		s := span{name: e.Name, lane: e.Tid, laneName: lanes[e.Tid],
			t0: e.Ts / 1e6, t1: (e.Ts + e.Dur) / 1e6}
		for k, v := range e.Args {
			if f, ok := v.(float64); ok {
				if s.args == nil {
					s.args = make(map[string]float64)
				}
				s.args[k] = f
			}
		}
		ss = append(ss, s)
	}
	return ss, nil
}

func named(name string) func(*span) bool { return func(s *span) bool { return s.name == name } }

func onWorker(s *span) bool { return strings.HasPrefix(s.laneName, "engine worker") }

// sum adds the durations of the matching spans.
func (ss spans) sum(keep func(*span) bool) float64 {
	var t float64
	for i := range ss {
		if keep(&ss[i]) {
			t += ss[i].t1 - ss[i].t0
		}
	}
	return t
}

// argSum adds one integer argument over the matching spans.
func (ss spans) argSum(keep func(*span) bool, arg string) float64 {
	var v float64
	for i := range ss {
		if keep(&ss[i]) {
			v += ss[i].args[arg]
		}
	}
	return v
}

// drainWaits returns one span per Phase I shard drain, on the lane of the
// flow that waited for it: from the end of a "heap split" span to the start
// of the next "delta merge" span on the same lane. The drain itself runs as
// engine tasks on worker lanes, or as serial "shard drain" spans inside that
// interval; worker lanes carry nothing that ties them to their flow, so
// when several flows drain at once (a batch) only the waiting lane's own
// spans tell whose drain is whose.
func (ss spans) drainWaits() spans {
	byLane := make(map[int]spans)
	for _, s := range ss {
		if s.name == "heap split" || s.name == "delta merge" {
			byLane[s.lane] = append(byLane[s.lane], s)
		}
	}
	var waits spans
	for lane, own := range byLane {
		sort.Slice(own, func(a, b int) bool { return own[a].t0 < own[b].t0 })
		for i, s := range own {
			if s.name == "heap split" && i+1 < len(own) && own[i+1].name == "delta merge" {
				waits = append(waits, span{name: "drain wait", lane: lane, t0: s.t1, t1: own[i+1].t0})
			}
		}
	}
	return waits
}

// self sums the self time of the spans named name: each one's duration
// minus the part covered by spans nested inside it on its own lane.
func (ss spans) self(name string) float64 {
	var t float64
	for i := range ss {
		p := &ss[i]
		if p.name != name {
			continue
		}
		var inner [][2]float64
		for j := range ss {
			s := &ss[j]
			if j != i && s.lane == p.lane && s.t0 >= p.t0 && s.t1 <= p.t1 {
				inner = append(inner, [2]float64{s.t0, s.t1})
			}
		}
		t += p.t1 - p.t0 - union(inner)
	}
	return t
}

// union is the total length covered by a set of intervals.
func union(iv [][2]float64) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end float64
	started := false
	for _, v := range iv {
		switch {
		case !started || v[0] > end:
			total += v[1] - v[0]
			end, started = v[1], true
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}
