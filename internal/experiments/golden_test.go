package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The tables under testdata/ pin the reproduction byte for byte: every
// experiment runs on seeded virtual time, so any change to a row is a
// change in behavior that a PR must name. Regenerate with:
//
//	go test ./internal/experiments -run TestGoldenTables -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

func TestGoldenTables(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tbl.Fprint(&buf)
			checkGolden(t, filepath.Join("testdata", id+".golden"), buf.Bytes())
		})
	}
}

// checkGolden compares got with the file at path, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the current output (run with -update if the change is intended)\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
