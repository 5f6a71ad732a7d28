package local

import (
	"fmt"
	"time"

	"localadvice/internal/fault"
	"localadvice/internal/graph"
	"localadvice/internal/obs"
)

// RunSequential executes a message protocol with a single-threaded,
// perfectly deterministic round loop — the same semantics as Run (the
// sharded scheduler), without concurrency or slab indexing. It is the
// reference oracle of the message engines: an independently written
// implementation that the scheduler and frugal equivalence tests compare
// against, and a reproducible engine for debugging protocols.
func RunSequential(g *graph.Graph, protocol Protocol, advice Advice) ([]any, Stats, error) {
	return RunSequentialConfig(g, protocol, advice, RunConfig{})
}

// RunSequentialConfig is RunSequential with a RunConfig, for fault
// injection; the worker count is ignored (the engine is single-threaded by
// design). Crash semantics match RunMessageConfig exactly: the crashed node
// is marked done with a fault.CrashError output at its crash round and
// sends nothing from then on.
func RunSequentialConfig(g *graph.Graph, protocol Protocol, advice Advice, cfg RunConfig) ([]any, Stats, error) {
	if err := validateAdvice(g, advice); err != nil {
		return nil, Stats{}, err
	}
	g, advice = cfg.applyFault(g, advice)
	n := g.N()
	machines := newMachines(g, protocol, advice)

	// portAt[v][i]: the port of v in the adjacency list of its i-th
	// neighbor (same wiring as the other engines, from the shared O(n+m)
	// port table).
	pt := newPortTable(g)
	portAt := make([][]int, n)
	for v := 0; v < n; v++ {
		portAt[v] = make([]int, g.Degree(v))
		for i := range portAt[v] {
			portAt[v][i] = pt.reversePort(g, v, i)
		}
	}

	inboxes := make([][]Message, n)
	nextInboxes := make([][]Message, n)
	for v := 0; v < n; v++ {
		inboxes[v] = make([]Message, g.Degree(v))
		nextInboxes[v] = make([]Message, g.Degree(v))
	}
	done := make([]bool, n)
	doneAt := make([]int, n)
	outputs := make([]any, n)
	msgCount := 0

	// Metrics: the sequential engine records the same per-round counters as
	// the scheduler (the equivalence tests compare their deterministic
	// projections); with no collector the extra branches are dead.
	m := cfg.collector()
	measure := m.Enabled()
	var runID int
	if measure {
		runID = m.BeginRun("sequential", n)
	}

	for round := 1; ; round++ {
		if round > maxRounds {
			return nil, Stats{}, fmt.Errorf("local: sequential engine exceeded %d rounds", maxRounds)
		}
		var roundStart time.Time
		if measure {
			roundStart = time.Now()
		}
		allDone := true
		active := 0
		sent, bytes := int64(0), int64(0)
		for v := 0; v < n; v++ {
			var outbox []Message
			if !done[v] && cfg.Fault.Crashes(v, round) {
				done[v] = true
				doneAt[v] = round
				outputs[v] = fault.CrashError{Node: v, Round: round}
				if measure {
					m.Emit("fault.crash", "", 1)
				}
			}
			if !done[v] {
				active++
				outbox, done[v] = machines[v].Round(round, inboxes[v])
				if done[v] {
					doneAt[v] = round
					outputs[v] = machines[v].Output()
				}
			}
			if !done[v] {
				allDone = false
			}
			for i := 0; i < g.Degree(v); i++ {
				var msg Message
				if i < len(outbox) {
					msg = outbox[i]
				}
				if msg != nil {
					msgCount++
					if measure {
						sent++
						bytes += obs.ApproxSize(msg)
					}
				}
				w := g.Neighbors(v)[i]
				nextInboxes[w][portAt[v][i]] = msg
			}
		}
		inboxes, nextInboxes = nextInboxes, inboxes
		for v := range nextInboxes {
			for i := range nextInboxes[v] {
				nextInboxes[v][i] = nil
			}
		}
		if measure {
			m.RecordRound(obs.RoundMetric{Engine: "sequential", Run: runID, Round: round,
				ActiveNodes: active, Messages: sent, Bytes: bytes,
				WallNanos: time.Since(roundStart).Nanoseconds()})
		}
		if allDone {
			break
		}
	}
	rounds := 0
	for _, r := range doneAt {
		if r > rounds {
			rounds = r
		}
	}
	return outputs, Stats{Rounds: rounds, Messages: msgCount}, nil
}
