// Package examples holds the golden-output test for the example
// programs in its subdirectories.
package examples

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// Every example runs on seeded virtual time, so its stdout is pinned
// byte for byte under testdata/. Regenerate with:
//
//	go test ./examples -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

var programs = []string{"congestion", "globalnet", "interop", "multicast", "policyrouting", "quickstart", "realtime"}

func TestExampleOutputs(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := t.TempDir()
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, p := range programs {
		args = append(args, "./"+p)
	}
	if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, p := range programs {
		t.Run(p, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, p))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", p, err, stderr.Bytes())
			}
			path := filepath.Join("testdata", p+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run with -update): %v", path, err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%s differs from the current output (run with -update if the change is intended)\n--- got\n%s\n--- want\n%s", path, stdout.Bytes(), want)
			}
		})
	}
}
