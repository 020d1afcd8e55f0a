package bench

import (
	"reflect"
	"testing"
)

// TestFigureGenerators runs every paper-figure generator and checks that it
// plots the stacks its figure compares, each at every x of the figure.
func TestFigureGenerators(t *testing.T) {
	lat, bw := LatencySizes(), BandwidthSizes()
	const ref = "reference (no computation)"
	for _, tc := range []struct {
		name   string
		gen    func() (*Figure, error)
		xs     []int
		labels []string
	}{
		{"fig4a", Fig4a, lat, []string{"mvapich2", "openmpi-ib", "mpich2-nmad-ib", "mpich2-nmad-ib w/AS"}},
		{"fig4b", Fig4b, bw, []string{"mvapich2", "openmpi-ib", "mpich2-nmad-ib"}},
		{"fig5a", Fig5a, lat, []string{"mpich2-nmad-mx", "mpich2-nmad-ib", "mpich2-nmad-multi-mx-ib"}},
		{"fig5b", Fig5b, bw, []string{"mpich2-nmad-mx", "mpich2-nmad-ib", "mpich2-nmad-multi-mx-ib"}},
		{"fig6a", Fig6a, lat, []string{"mpich2-nmad-ib", "mpich2-nmad-ib+pioman", "openmpi-ib"}},
		{"fig6b", Fig6b, lat, []string{"openmpi-cm-mx", "openmpi-btl-mx", "mpich2-nmad-mx", "mpich2-nmad-mx+pioman"}},
		{"fig7a", Fig7a, []int{4 << 10, 16 << 10},
			[]string{ref, "mpich2-nmad-mx", "mpich2-nmad-mx+pioman", "openmpi-btl-mx", "openmpi-cm-mx"}},
		{"fig7b", Fig7b, []int{16 << 10, 64 << 10, 256 << 10, 1 << 20},
			[]string{ref, "mpich2-nmad-ib", "mpich2-nmad-ib+pioman", "openmpi-ib", "mvapich2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			if f.Name != tc.name {
				t.Errorf("figure name %q", f.Name)
			}
			var labels []string
			for _, s := range f.Series {
				labels = append(labels, s.Label)
				for _, x := range tc.xs {
					if _, ok := s.YAt(float64(x)); !ok {
						t.Errorf("series %q has no point at x=%d", s.Label, x)
					}
				}
			}
			if !reflect.DeepEqual(labels, tc.labels) {
				t.Errorf("series %q, want %q", labels, tc.labels)
			}
		})
	}
}
