package main

import (
	"os"
	"strings"

	"discovery/internal/core"
	"discovery/internal/starbench"
)

// workload is one set of inputs the benchmark runs. BENCHMARK.json and
// README.md record why each was chosen.
type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

var workloads = []*workload{
	// The paper's own input set at its Table-2 analysis inputs, with the
	// default options the golden corpus was made with: match-dominated.
	{name: "suite-1x", run: func(cfg config) (*outcome, error) {
		progs := suitePrograms()
		golden, err := loadGolden(cfg.root, progs)
		if err != nil {
			return nil, err
		}
		return runLibrary(cfg, progs, &suiteCheck{golden: golden})
	}},
	// Many small loops: a pool of 8,771 sub-DDGs that subtract, fuse and
	// merge compare pairwise, while tracing is cheap.
	{name: "md5-wide", run: func(cfg config) (*outcome, error) {
		p := md5Program(cfg, 64, 4, core.Options{})
		return runLibrary(cfg, []*program{p}, &selfCheck{})
	}},
	// Few long loops: 526K traced nodes in 277 sub-DDGs, paged under a
	// 2 MiB arc budget, so tracing, simplify and decompose dominate. The
	// input is small enough for a pass of about a second, so a run holds
	// enough passes for a steady median. The budget is the CLI's 4 MiB
	// halved with the input; under 4 MiB this graph would not spill. The
	// view-group cap is raised past the 131,072-iteration input loop,
	// which the default cap would skip and label the result degraded.
	{name: "md5-long", run: func(cfg config) (*outcome, error) {
		dir, err := os.MkdirTemp("", "pipebench-spill-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		p := md5Program(cfg, 2, 65536, core.Options{
			MaxViewGroups: 1 << 20, SpillBudget: 2 << 20, SpillDir: dir,
		})
		return runLibrary(cfg, []*program{p}, &selfCheck{})
	}},
	{name: "daemon-mix", run: runDaemon},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// suitePrograms is every Starbench benchmark in both versions at its
// Table-2 analysis input, with default finder options.
func suitePrograms() []*program {
	var progs []*program
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			progs = append(progs, &program{bench: b, version: v, params: b.Analysis})
		}
	}
	return progs
}

// md5Program is sequential md5 over nbuf buffers of bufwords words; smoke
// runs divide the larger dimension by 16.
func md5Program(cfg config, nbuf, bufwords int64, opts core.Options) *program {
	if cfg.smoke {
		if nbuf > bufwords {
			nbuf /= 16
		} else {
			bufwords /= 16
		}
	}
	return &program{
		bench:   starbench.MD5(),
		version: starbench.Seq,
		params:  starbench.Params{"nbuf": nbuf, "bufwords": bufwords, "nproc": 2},
		opts:    opts,
	}
}
