// Package experiments regenerates the paper's evaluation (§6) and the
// quantitative claims scattered through §1–§5. The paper has one figure
// (the VIPER header, Figure 1) and no numbered tables; its evaluation is
// a set of analytic claims, each of which is reproduced here as a
// measured table. DESIGN.md maps experiment IDs to paper claims;
// EXPERIMENTS.md records paper-vs-measured values.
//
// Every experiment is a pure function returning a Table so the same code
// backs `go test -bench`, the cmd/sirpent-bench binary, and the
// documentation.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is one experiment's regenerated output.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper text being checked
	Columns []string
	Rows    [][]string
	// Checks summarize pass/fail of shape assertions so benches can
	// fail loudly when a reproduction regresses.
	Checks []Check
}

// Check is one shape assertion on the results.
type Check struct {
	Name string
	OK   bool
	Got  string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddCheck records a shape assertion.
func (t *Table) AddCheck(name string, ok bool, format string, args ...any) {
	t.Checks = append(t.Checks, Check{Name: name, OK: ok, Got: fmt.Sprintf(format, args...)})
}

// Failed returns the names of failed checks.
func (t *Table) Failed() []string {
	var out []string
	for _, c := range t.Checks {
		if !c.OK {
			out = append(out, c.Name)
		}
	}
	return out
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "  paper: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, c := range t.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s: %s\n", status, c.Name, c.Got)
	}
	fmt.Fprintln(w)
}

// Generator produces one experiment table.
type Generator func() *Table

// registry of all experiments.
var registry = map[string]Generator{}

func register(id string, g Generator) { registry[id] = g }

// IDs returns all experiment identifiers in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string) (*Table, error) {
	g, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return g(), nil
}

// formatting helpers shared by the experiment files.

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func fi(v int) string     { return fmt.Sprintf("%d", v) }
func fu(v uint64) string  { return fmt.Sprintf("%d", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.2f%%", v*100)
}
func us(ns float64) string { return fmt.Sprintf("%.1fus", ns/1e3) }
func ms(ns float64) string { return fmt.Sprintf("%.3fms", ns/1e6) }
