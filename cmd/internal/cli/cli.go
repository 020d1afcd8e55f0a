// Package cli holds the flag parsing and output plumbing the benchmark
// commands share.
package cli

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/cluster"
	"repro/internal/coll/tune"
	"repro/internal/trace"
)

// Ints parses value, a comma-separated list of integers, each at least min.
// what names one element in the error message; a malformed or out-of-range
// element ends the program with log.Fatalf.
func Ints(value, what string, min int) []int {
	out, err := parseInts(value, what, min)
	if err != nil {
		log.Fatal(err)
	}
	return out
}

func parseInts(value, what string, min int) ([]int, error) {
	var out []int
	for _, f := range strings.Split(value, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < min {
			return nil, fmt.Errorf("bad %s %q", what, f)
		}
		out = append(out, n)
	}
	return out, nil
}

// Stack resolves a -stack flag value to its preset; an unknown name ends
// the program with the list of presets.
func Stack(name string) cluster.Stack {
	s, err := stackByName(name)
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func stackByName(name string) (cluster.Stack, error) {
	if s, ok := tune.StackByName(name); ok {
		return s, nil
	}
	var names []string
	for _, p := range tune.PresetStacks() {
		names = append(names, p.Name)
	}
	return cluster.Stack{}, fmt.Errorf("unknown stack %q (presets: %s)", name, strings.Join(names, ", "))
}

// JSON writes v to stdout as two-space-indented JSON (the BENCH_*.json
// row format); an encoding error ends the program.
func JSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

// WriteTrace writes tr as a Chrome trace file at path, then prints the
// trace summary on stderr; any error ends the program.
func WriteTrace(path string, tr *trace.Trace) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.WriteChrome(f, tr); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %s\n", path)
	trace.Summarize(tr).WriteText(os.Stderr)
}
