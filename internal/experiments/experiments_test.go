package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsPassChecks runs every experiment end to end and
// requires every shape assertion (the "paper claim holds" checks) to
// pass. This is the repository's reproduction gate.
func TestAllExperimentsPassChecks(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			if len(tbl.Checks) == 0 {
				t.Fatal("experiment asserts nothing")
			}
			var buf bytes.Buffer
			tbl.Fprint(&buf)
			if failed := tbl.Failed(); len(failed) > 0 {
				t.Fatalf("failed checks %v\n%s", failed, buf.String())
			}
			t.Log("\n" + buf.String())
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"E01", "E02", "E03", "E04", "E05", "E06", "E07", "E08", "E09", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry has %v, want %v", got, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E99"); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "X", Title: "t", Claim: "c", Columns: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddCheck("chk", true, "fine")
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"X — t", "paper: c", "a  bb", "[PASS] chk: fine"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// BenchmarkExperiments runs every table of the reproduction index
// (DESIGN.md §2) as a sub-benchmark, one table per iteration, and fails
// when any of the table's shape checks fails:
//
//	go test ./internal/experiments -run '^$' -bench Experiments
//	go test ./internal/experiments -run '^$' -bench 'Experiments/E03'
func BenchmarkExperiments(b *testing.B) {
	for _, id := range IDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, err := Run(id)
				if err != nil {
					b.Fatal(err)
				}
				if failed := t.Failed(); len(failed) > 0 {
					b.Fatalf("%s failed checks: %v", id, failed)
				}
			}
		})
	}
}
