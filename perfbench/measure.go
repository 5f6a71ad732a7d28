package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// timedReport is a timed run's result plus the sample counts recorded in
// the provenance line.
type timedReport struct {
	result     *result
	samples    int // latencies the percentiles are taken over
	tail       int // of them, slower than p90
	blocksUsed int
	raw        rawFigures
}

// processSample is the process-wide state a timed window is measured by.
type processSample struct {
	cpu   time.Duration // user + sys
	alloc uint64        // cumulative heap bytes allocated
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

var heldSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

// heldBytes is the memory the Go runtime holds from the OS: everything it
// mapped less what it returned, the resident set less the binary's text and
// data. Unlike the kernel's peak RSS it can be sampled over a window.
func heldBytes() uint64 {
	metrics.Read(heldSamples)
	return heldSamples[0].Value.Uint64() - heldSamples[1].Value.Uint64()
}

// runtimeCounters reads heap bytes allocated, GC CPU seconds and non-idle
// CPU seconds from runtime/metrics.
func runtimeCounters() (alloc uint64, gcCPU, busyCPU float64) {
	metrics.Read(runtimeSamples)
	alloc = runtimeSamples[0].Value.Uint64()
	gcCPU = runtimeSamples[1].Value.Float64()
	busyCPU = runtimeSamples[2].Value.Float64() - runtimeSamples[3].Value.Float64()
	return alloc, gcCPU, busyCPU
}

func sampleProcess() processSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	alloc, _, _ := runtimeCounters()
	return processSample{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: alloc,
	}
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// plannedOps is how many measured ops a plan must hold: the fixed count, or
// what the window can reach at encode-churn's highest expected rate.
func plannedOps(cfg config) int {
	if cfg.ops > 0 {
		return cfg.ops
	}
	return int(math.Ceil(cfg.seconds * churnUnitRate * 3))
}

// runTimed plans the workload, sets it up cfg.setups times (setup_s is the
// median), then runs the closed loop on the last set-up for cfg.seconds (or
// cfg.ops ops). Its time metrics come from the fastest quarter of the
// window's blocks, scaled by the reference kernel (see block).
func runTimed(w workload, cfg config) (*timedReport, error) {
	p, err := w.plan(cfg.seed, plannedOps(cfg))
	if err != nil {
		return nil, fmt.Errorf("%s plan: %w", w.name, err)
	}
	ref, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	defer ref.release()
	var setups []float64
	var sys *system
	for r := 0; r < max(cfg.setups, 1); r++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC() // every set-up starts from a collected heap
		before := ref.run()
		start := time.Now()
		sys, err = p.setup(cfg.workdir)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(start)
		setups = append(setups, d.Seconds()*scale(before, ref.run()))
	}
	defer sys.close()

	// The window starts from a collected heap with its free pages returned,
	// so that its resident peak is the workload's own, not set-up's.
	debug.FreeOSMemory()
	window := time.Duration(cfg.seconds * float64(time.Second))
	var blocks []*block
	var held, kernels, raw []float64
	failed, attempted := 0, 0
	kernel := ref.run()
	kernels = append(kernels, float64(kernel)/float64(time.Millisecond))
	start := time.Now()
	cur := newBlock(start)
	lastSample := start
	for i := 0; ; i++ {
		now := time.Now()
		if now.Sub(lastSample) >= time.Millisecond {
			held = append(held, float64(heldBytes())/(1<<20))
			lastSample = now
		}
		if cfg.ops > 0 && i >= cfg.ops || cfg.ops <= 0 && now.Sub(start) >= window {
			break
		}
		o := p.opAt(i)
		if o == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s sequence exhausted after %d ops\n", w.name, i)
			break
		}
		d, _, err := sys.run(o)
		attempted++
		cur.lat = append(cur.lat, float64(d)/float64(time.Millisecond))
		raw = append(raw, float64(d)/float64(time.Millisecond))
		if err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s op %d (%s %s n=%d): %v\n", w.name, i, o.path, o.schema, o.spec.N, err)
			}
		}
		if len(cur.lat) == p.block {
			kernel = cur.end(time.Now(), ref, kernel)
			kernels = append(kernels, float64(kernel)/float64(time.Millisecond))
			blocks = append(blocks, cur)
			cur = newBlock(time.Now())
		}
	}
	rawWall := time.Since(start)
	if attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed in the window", w.name)
	}
	if len(blocks) < minBlocks {
		// Too short to select from (the tests' fixed op counts): use every op.
		cur.end(time.Now(), ref, kernel)
		blocks = append(blocks, cur)
	} else {
		sort.Slice(blocks, func(a, b int) bool { return blocks[a].scaledWall() < blocks[b].scaledWall() })
		blocks = blocks[:(len(blocks)+3)/4]
	}
	var lat []float64
	var wall, cpu float64 // scaled, ms
	var alloc uint64
	for _, b := range blocks {
		for _, l := range b.lat {
			lat = append(lat, l*b.scale)
		}
		wall += b.scaledWall()
		cpu += float64(b.cpu) / float64(time.Millisecond) * b.scale
		alloc += b.alloc
	}
	n := float64(len(lat))
	sort.Float64s(lat)
	p90 := quantile(lat, 0.90)
	sort.Float64s(held)
	sort.Float64s(raw)
	m := map[string]metric{
		"throughput_ops":  {n / wall * 1000, "ops/s"},
		"latency_p50_ms":  {quantile(lat, 0.50), "ms"},
		"latency_p90_ms":  {p90, "ms"},
		"cpu_ms_per_op":   {cpu / n, "ms"},
		"alloc_kb_per_op": {float64(alloc) / 1024 / n, "KiB"},
		"rss_peak_mb":     {quantile(held, 0.99), "MiB"},
		"setup_s":         {median(setups), "s"},
	}
	return &timedReport{
		result:     &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m},
		samples:    len(lat),
		tail:       len(lat) - sort.Search(len(lat), func(i int) bool { return lat[i] > p90 }),
		blocksUsed: len(blocks),
		raw: rawFigures{
			ThroughputOps: float64(attempted) / rawWall.Seconds(),
			LatencyP50MS:  quantile(raw, 0.50),
			LatencyP90MS:  quantile(raw, 0.90),
			KernelMS:      median(kernels),
			NominalMS:     float64(refNominal) / float64(time.Millisecond),
		},
	}, nil
}

// rawFigures are a timed run's unscaled whole-window figures, recorded in
// the provenance line beside the reference kernel's median time.
type rawFigures struct {
	ThroughputOps float64 `json:"throughput_ops"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP90MS  float64 `json:"latency_p90_ms"`
	KernelMS      float64 `json:"ref_kernel_ms"`
	NominalMS     float64 `json:"ref_nominal_ms"`
}

// A block is a run of consecutive ops whose mix of request classes is the
// same in every block (plan.block ops). The reference kernel runs between
// blocks; a block's times are scaled by the kernel times on either side
// (calibrate.go), and timed runs report the quarter of their blocks that is
// fastest after scaling, which drops blocks a burst from a neighbour hit
// without hitting the kernel.
type block struct {
	lat   []float64 // op latencies, ms
	t0    time.Time
	s0    processSample
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	scale float64
}

// minBlocks is the fewest complete blocks a window selects from.
const minBlocks = 8

func newBlock(now time.Time) *block { return &block{t0: now, s0: sampleProcess()} }

// end closes the block, runs the kernel after it and returns that kernel
// time; before is the kernel time measured just before the block.
func (b *block) end(now time.Time, ref *refKernel, before time.Duration) time.Duration {
	s := sampleProcess()
	b.wall = now.Sub(b.t0)
	b.cpu = s.cpu - b.s0.cpu
	b.alloc = s.alloc - b.s0.alloc
	after := ref.run()
	b.scale = scale(before, after)
	return after
}

// scaledWall is the block's wall time at the reference speed, in ms.
func (b *block) scaledWall() float64 {
	return float64(b.wall) / float64(time.Millisecond) * b.scale
}
