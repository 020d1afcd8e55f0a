// Package cli holds the flag-value parsing the benchmark commands share.
package cli

import (
	"fmt"
	"log"
	"strconv"
	"strings"
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
