// Command tool is the Go half of the end-to-end benchmark (run.py is
// the driver). It has two subcommands:
//
//	tool check -out DIR
//	    validates a finished sweep output directory written by the CLIs
//	    (one parsable snapshot per manifest cell, unique store rows,
//	    merged/ digests) and prints the deterministic work counters as
//	    one JSON object.
//
//	tool trace -out DIR -spans FILE [-fleet] <ronsim sweep flags>
//	    reruns the same grid in-process through the public packages with
//	    spans around every layer boundary the benchmark can reach from
//	    outside the program (cell spans from the Progress hook, fleet
//	    request spans from a timing wrapper around the coordinator's
//	    handler and an instrumented worker transport), then times single
//	    calls into each layer against the workload's own topology and
//	    configuration. It prints the per-layer metrics, the work
//	    counters and the merged/ digests as one JSON object and writes
//	    the spans to FILE.
//
// The sweep flags are ronsim's (-dataset, -days, -seed, -replicas,
// -parallel, -workload and every registered axis flag), so the traced
// grid is the one the CLI ran: same cell names, seeds and merged bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/experiment"
	"repro/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tool check|trace [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "check":
		err = runCheck(os.Args[2:])
	case "trace":
		err = runTrace(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tool:", err)
		os.Exit(1)
	}
}

// gridFlags mirrors the sweep flags of cmd/ronsim that the benchmark's
// workloads use, so a traced run expands exactly the CLI's grid.
type gridFlags struct {
	dataset  *string
	days     *float64
	seed     *uint64
	replicas *int
	parallel *int
	workload *bool
	axes     func() ([]experiment.Axis, error)
}

func registerGridFlags(fs *flag.FlagSet) gridFlags {
	return gridFlags{
		dataset:  fs.String("dataset", "ron2003", "dataset"),
		days:     fs.Float64("days", 2, "virtual campaign length in days"),
		seed:     fs.Uint64("seed", 1, "base seed"),
		replicas: fs.Int("replicas", 1, "replicates per grid point"),
		parallel: fs.Int("parallel", 0, "max concurrent cells"),
		workload: fs.Bool("workload", false, "run the application workload"),
		axes:     experiment.RegisterAxisValueFlags(fs),
	}
}

// options builds the experiment options in the order cmd/ronsim's
// runSweep does; the single default profile variant is what ronsim's
// -lossscale 1 -edgeshare 1 defaults expand to.
func (g gridFlags) options() ([]experiment.Option, error) {
	d, err := core.ParseDataset(*g.dataset)
	if err != nil {
		return nil, err
	}
	opts := []experiment.Option{
		experiment.Datasets(d),
		experiment.Days(*g.days),
		experiment.Seed(*g.seed),
		experiment.Replicas(*g.replicas),
		experiment.Parallel(*g.parallel),
		experiment.Axes(core.ProfileAxis(core.ProfileVariant{})),
	}
	axes, err := g.axes()
	if err != nil {
		return nil, err
	}
	for _, a := range axes {
		opts = append(opts, experiment.Axes(a))
	}
	if *g.workload {
		opts = append(opts, experiment.Workload(experiment.DefaultWorkloadConfig()))
	}
	return opts, nil
}

// metric is one named measurement as run.py prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named measurements; names are dotted layer.metric.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

func writeJSON(v any) error { return json.NewEncoder(os.Stdout).Encode(v) }
