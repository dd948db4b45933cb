// Package discovery is a reproduction of "Modernizing Parallel Code with
// Pattern Analysis" (Castañeda Lozano, Cole, Franke — PPoPP 2021): a
// dynamic analysis that finds parallel patterns (maps, reductions, and
// their compositions) in legacy sequential and parallel code by matching
// the paper's pattern constraints on traced dynamic dataflow graphs, plus
// everything the paper's evaluation needs — the Starbench kernels, a
// skeleton library, and the portability study machinery.
//
// See README.md for an overview, DESIGN.md for the system inventory and
// the paper-to-module mapping, and EXPERIMENTS.md for reproduced results.
// The benchmarks in bench_test.go regenerate every table and figure.
package discovery
