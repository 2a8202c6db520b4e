package main

import (
	"fmt"
	"slices"
	"time"

	"p2pstream"
)

// setupBatch is how many config builds one setup sample times: a single
// build takes about a microsecond, below what one clock read resolves
// steadily.
const setupBatch = 2000

// simRound is the raw outcome of one paper-sim round: the paper's
// Figure 4 pair, DAC then NDAC, at paper scale.
type simRound struct {
	setup    float64 // seconds per config-pair build
	measured time.Duration
	res      [2]*p2pstream.SimResult
	calls    [2][2]time.Time // wall start and end of each Simulate call
	usage    usage
	heapMB   float64 // peak live heap of the two Simulate calls
	failures []string
}

// simPolicies names the pair's policies in run order.
var simPolicies = [2]string{"DAC", "NDAC"}

// simConfigs returns the Figure 4 pair for seed: DefaultSimConfig (100
// class-1 seeds, 50,000 requesters, Pattern 2, 144 h) under DAC and NDAC,
// with the per-admission Theorem 1 check on.
func simConfigs(seed int64) ([2]p2pstream.SimConfig, error) {
	var cfgs [2]p2pstream.SimConfig
	for i, pol := range []p2pstream.Policy{p2pstream.DAC, p2pstream.NDAC} {
		cfg := p2pstream.DefaultSimConfig()
		cfg.Policy = pol
		cfg.Seed = seed
		cfg.ValidateAssignments = true
		if err := cfg.Validate(); err != nil {
			return cfgs, err
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// runSim executes one round. Every round of a run simulates the same
// seed, so the rounds double as a determinism check.
func runSim(seed int64) (*simRound, error) {
	out := &simRound{}
	t0 := time.Now()
	for range setupBatch {
		if _, err := simConfigs(seed); err != nil {
			return nil, err
		}
	}
	out.setup = time.Since(t0).Seconds() / setupBatch
	cfgs, err := simConfigs(seed)
	if err != nil {
		return nil, err
	}
	cpu0, mem0 := sampleUsage()
	heap := watchHeap()
	t1 := time.Now()
	for i, cfg := range cfgs {
		out.calls[i][0] = time.Now()
		if out.res[i], err = p2pstream.Simulate(cfg); err != nil {
			return nil, fmt.Errorf("simulate %v: %w", cfg.Policy, err)
		}
		out.calls[i][1] = time.Now()
	}
	out.measured = time.Since(t1)
	out.usage = usageSince(cpu0, mem0)
	out.heapMB = heap.end()
	out.failures = checkSim(seed, out.res)
	return out, nil
}

// finalCapacity is a run's capacity at the horizon.
func finalCapacity(r *p2pstream.SimResult) float64 {
	v, _ := r.Capacity.Last()
	return v
}

// checkSim is the paper-sim correctness gate: the per-class admitted
// counts equal the golden values recorded for the seed (when it has
// them), and DAC's final capacity exceeds NDAC's.
func checkSim(seed int64, res [2]*p2pstream.SimResult) []string {
	var fails []string
	if g, ok := simGolden[seed]; ok {
		for i, name := range simPolicies {
			if !slices.Equal(res[i].Admitted, g[i]) {
				fails = append(fails, fmt.Sprintf("%s admitted per class %v, golden %v", name, res[i].Admitted, g[i]))
			}
		}
	}
	if dac, ndac := finalCapacity(res[0]), finalCapacity(res[1]); dac <= ndac {
		fails = append(fails, fmt.Sprintf("DAC final capacity %.0f does not exceed NDAC's %.0f", dac, ndac))
	}
	return fails
}

// sameOutputs reports whether two rounds of one seed produced identical
// per-class admissions, capacities and event counts.
func sameOutputs(a, b *simRound) bool {
	for i := range a.res {
		x, y := a.res[i], b.res[i]
		if !slices.Equal(x.Admitted, y.Admitted) || x.Events != y.Events ||
			finalCapacity(x) != finalCapacity(y) || x.TotalProbes != y.TotalProbes {
			return false
		}
	}
	return true
}

// goldenLine formats one simGolden entry for seed.
func goldenLine(seed int64, res [2]*p2pstream.SimResult) string {
	return fmt.Sprintf("\t%d: {%#v, %#v},", seed, res[0].Admitted, res[1].Admitted)
}
