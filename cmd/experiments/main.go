// Command experiments regenerates the tables and figures of the paper's
// evaluation (§6).
//
// Usage:
//
//	experiments -run all
//	experiments -run table3
//	experiments -run figure7 -factors 1,2,4,8
//
// Available experiments: table1, table2, table3, accuracy, figure7,
// figure8, phases, simplify, ablation, all. Timing the pipeline as a whole
// is bench/pipebench's job (bash bench/pipebench/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"discovery/internal/core"
	"discovery/internal/experiments"
	"discovery/internal/obs"
)

func main() {
	var (
		run      = flag.String("run", "all", "experiment to run")
		factors  = flag.String("factors", "1,2,4", "input scale ladder for figure7")
		reps     = flag.Int("reps", 3, "timings per figure7 point; each point is their median")
		budget   = flag.Duration("budget", 0, "global wall-clock budget per pattern finding run (0 = none)")
		obsOn    = flag.Bool("obs", false, "record phase spans and metrics across all runs; print the phase tree to stderr")
		obsOut   = flag.String("obs-out", "", "write the observability JSON document (spans + metrics) to this file (implies -obs)")
		metrics  = flag.Bool("metrics", false, "print metrics in Prometheus text format to stderr (implies -obs)")
		pprofOut = flag.String("pprof", "", "capture profiles around the experiments into PREFIX.cpu.pprof and PREFIX.heap.pprof")
	)
	flag.Parse()

	// One collector spans every selected experiment; with the flags unset
	// the recorder stays the no-op singleton and outputs are byte-identical
	// to a build without the obs layer.
	rec := obs.Recorder(obs.Nop)
	var collector *obs.Collector
	if *obsOn || *obsOut != "" || *metrics {
		collector = obs.NewCollector()
		rec = collector
	}
	var prof *obs.Profiler
	if *pprofOut != "" {
		p, err := obs.StartProfile(*pprofOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "profiling failed: %v\n", err)
			os.Exit(1)
		}
		prof = p
	}

	// opts layers the budget flags over the experiments' defaults; with the
	// flags unset the outputs are byte-identical to an unbudgeted build.
	opts := func() core.Options {
		o := experiments.Opts()
		o.Budget = *budget
		o.Obs = rec
		return o
	}

	runners := map[string]func() error{
		"table1": func() error {
			text, err := experiments.Table1()
			if err != nil {
				return err
			}
			fmt.Println(text)
			return nil
		},
		"table2": func() error {
			fmt.Println(experiments.Table2())
			return nil
		},
		"table3": func() error {
			res, err := experiments.RunTable3(opts())
			if err != nil {
				return err
			}
			fmt.Println(res.Text())
			return nil
		},
		"accuracy": func() error {
			res, err := experiments.RunAccuracy(opts())
			if err != nil {
				return err
			}
			fmt.Println(res.Text())
			return nil
		},
		"figure7": func() error {
			var fs []int64
			for _, part := range strings.Split(*factors, ",") {
				f, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
				if err != nil {
					return fmt.Errorf("bad factor %q: %w", part, err)
				}
				fs = append(fs, f)
			}
			res, err := experiments.RunFigure7(opts(), fs, *reps)
			if err != nil {
				return err
			}
			fmt.Println(res.Text())
			return nil
		},
		"figure8": func() error {
			fmt.Println(experiments.Figure8Text())
			return nil
		},
		"phases": func() error {
			res, err := experiments.RunPhases(opts())
			if err != nil {
				return err
			}
			fmt.Println(res.Text())
			return nil
		},
		"simplify": func() error {
			res, err := experiments.RunSimplify(opts())
			if err != nil {
				return err
			}
			fmt.Println(res.Text())
			return nil
		},
		"ablation": func() error {
			rows, err := experiments.RunAblations()
			if err != nil {
				return err
			}
			fmt.Println(experiments.AblationsText(rows))
			return nil
		},
	}

	order := []string{"table1", "table2", "table3", "accuracy", "figure7",
		"figure8", "phases", "simplify", "ablation"}

	names := []string{*run}
	if *run == "all" {
		names = order
	}
	for _, name := range names {
		fn, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s, all\n",
				name, strings.Join(order, ", "))
			os.Exit(1)
		}
		fmt.Printf("================ %s ================\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
	}

	if prof != nil {
		if err := prof.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "profiling failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s, %s\n", prof.CPUPath(), prof.HeapPath())
	}
	if collector != nil {
		if *obsOn {
			fmt.Fprint(os.Stderr, obs.RenderTree(collector, obs.RenderOptions{}))
		}
		if *metrics {
			fmt.Fprint(os.Stderr, obs.Prometheus(collector.Metrics()))
		}
		if *obsOut != "" {
			data, err := obs.JSON(collector)
			if err != nil {
				fmt.Fprintf(os.Stderr, "obs export failed: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*obsOut, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "obs export failed: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *obsOut)
		}
	}
}
