package testgen

import (
	"fmt"
	"strings"
)

// GenCyclicProject generates a cycle-dense project: rings of modules whose
// export slots re-export each other around the ring (a directed cycle of
// subset constraints), populated by mutually recursive local functions. The
// solver's token flow circulates until a cycle sweep collapses each ring
// into one representative, after which the still-queued deliveries are
// short-circuited — so an analysis of this project must end with a nonzero
// redundant_deliveries_skipped counter and one collapsed cycle per ring.
// It is the regression workload for the solver's cycle-collapsing machinery
// (the corpus proper is cycle-light; see Benchmark tiers).
//
// Deterministic: equal arguments generate equal projects. rings and
// ringLen are clamped to at least 1 and 2 respectively.
func GenCyclicProject(seed uint64, rings, ringLen int) *ProjectSpec {
	if rings < 1 {
		rings = 1
	}
	if ringLen < 2 {
		ringLen = 2
	}
	g := New(seed ^ 0xC1C1_5EED)
	spec := &ProjectSpec{Seed: seed, Files: map[string]string{}}

	for r := 0; r < rings; r++ {
		for i := 0; i < ringLen; i++ {
			var sb strings.Builder
			// Edge around the ring: module i re-exports module i+1's slot.
			fmt.Fprintf(&sb, "var next = require('./r%d_m%d');\n", r, (i+1)%ringLen)
			// A mutually recursive pair: each calls the other through the
			// ring's export slot, so the functions flow into the very slot
			// cycle that carries them.
			fmt.Fprintf(&sb, "function ping_r%d_m%d(x) { return x > 0 ? exports.step(x - 1) : x; }\n", r, i)
			fmt.Fprintf(&sb, "function pong_r%d_m%d(x) { return x > 0 ? ping_r%d_m%d(x - 1) : x; }\n", r, i, r, i)
			fmt.Fprintf(&sb, "var flag = %d;\n", g.Intn(2))
			// Both ternary branches flow statically: the slot is the union
			// of the downstream ring slot and the local pair — a subset
			// cycle once every module in the ring has emitted its edge.
			fmt.Fprintf(&sb, "exports.step = flag ? next.step : (flag ? ping_r%d_m%d : pong_r%d_m%d);\n", r, i, r, i)
			spec.Files[fmt.Sprintf("/app/r%d_m%d.js", r, i)] = sb.String()
		}
	}

	var sb strings.Builder
	for r := 0; r < rings; r++ {
		fmt.Fprintf(&sb, "var ring%d = require('./r%d_m0');\n", r, r)
	}
	for r := 0; r < rings; r++ {
		// Concrete execution terminates (step counts down to 0); statically
		// the call dispatches over every function in the ring.
		fmt.Fprintf(&sb, "ring%d.step(%d);\n", r, 1+g.Intn(3))
	}
	spec.Files["/app/main.js"] = sb.String()
	spec.Entries = []string{"/app/main.js"}
	return spec
}
