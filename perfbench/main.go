// Command perfbench is the end-to-end benchmark of the advice server.
//
// It drives the public entry points from one process and one closed-loop
// client: (*server.Server).ServeHTTP, and (*cluster.Router).ServeHTTP in
// front of two in-process shards on loopback listeners. Every response is
// checked against references computed by calling the schema encoders and
// decoders directly; a response that fails the check counts as a failed op.
//
//	bash perfbench/run.sh --workload decode-hot --seed 7 --seconds 10 --trace 0
//	go run . -workload decode-fresh -seed 7 -seconds 10 -trace 1
//
// With -trace 0 the last line of standard output carries the end-to-end
// metrics of BENCHMARK.json; with -trace 1 a separate traced replay of the
// same workload reports the per-layer metrics instead. The line before it
// records provenance: seed, cpus, GOMAXPROCS, Go version and commit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	// seconds is the measurement window of a timed run.
	seconds float64
	// ops, when positive, replaces the window by a fixed op count (the short
	// mode of the tests); traceOps likewise bounds a traced replay.
	ops      int
	traceOps int
	// setups is how many times a timed run constructs and warms the system;
	// setup_s is the median.
	setups  int
	workdir string
	commit  string
}

// procs is the run's GOMAXPROCS: one P, because on a shared 2-vCPU VM the
// second vCPU's availability swings with the neighbours' load and two Ps
// amplify it (METRICS.md has the measurements).
const procs = 1

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance is printed on the line before the result.
type provenance struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Trace       bool        `json:"trace"`
	Seconds     float64     `json:"seconds"`
	Setups      int         `json:"setups"`
	Samples     int         `json:"samples"`
	TailSamples int         `json:"samples_beyond_p90"`
	BlocksUsed  int         `json:"blocks_used,omitempty"`
	Raw         *rawFigures `json:"unscaled,omitempty"`
	CPUs        int         `json:"cpus"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	GoVersion   string      `json:"go_version"`
	Platform    string      `json:"platform"`
	Commit      string      `json:"commit"`
	Note        string      `json:"note"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the server receives only the requests generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement window of a timed run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer replay instead of the end-to-end measurement")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench-work", "parent directory of the encode-churn stores")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit recorded in the provenance line")
	flag.Parse()
	cfg.setups = 3
	runtime.GOMAXPROCS(procs)

	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	prov := provenance{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      trace == 1,
		Seconds:    cfg.seconds,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     cfg.commit,
		Note:       "one closed-loop client on GOMAXPROCS Ps; it claims no parallel speedup",
	}
	var res *result
	if trace == 1 {
		rep, err := runTraced(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		res = rep.result
		prov.Samples = rep.result.Attempted
	} else {
		rep, err := runTimed(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		res = rep.result
		prov.Setups = cfg.setups
		prov.Samples = rep.samples
		prov.TailSamples = rep.tail
		prov.BlocksUsed = rep.blocksUsed
		prov.Raw = &rep.raw
	}
	line, err := json.Marshal(map[string]provenance{"provenance": prov})
	if err == nil {
		fmt.Println(string(line))
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
