package cli

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	for _, tc := range []struct {
		value string
		min   int
		want  []int
		err   string
	}{
		{value: "4", min: 1, want: []int{4}},
		{value: "1,2, 8 ,16", min: 1, want: []int{1, 2, 8, 16}},
		{value: "0,2", min: 0, want: []int{0, 2}},
		{value: "+3", min: 1, want: []int{3}},
		{value: "0,2", min: 1, err: `bad size "0"`},
		{value: "-1", min: 0, err: `bad size "-1"`},
		{value: "4, x", min: 1, err: `bad size " x"`},
		{value: "4,", min: 1, err: `bad size ""`},
		{value: "", min: 1, err: `bad size ""`},
		{value: "4k", min: 1, err: `bad size "4k"`},
	} {
		got, err := parseInts(tc.value, "size", tc.min)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("parseInts(%q, min %d) error = %v, want %s", tc.value, tc.min, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseInts(%q, min %d) = %v, %v; want %v", tc.value, tc.min, got, err, tc.want)
		}
	}
}

func TestStackByName(t *testing.T) {
	if s, err := stackByName("mvapich2"); err != nil || s.Name != "mvapich2" {
		t.Fatalf("stackByName(mvapich2) = %q, %v", s.Name, err)
	}
	_, err := stackByName("nope")
	if err == nil || !strings.Contains(err.Error(), `unknown stack "nope" (presets: mpich2-nmad-ib, `) {
		t.Fatalf("stackByName(nope) error = %v, want the preset list", err)
	}
}
