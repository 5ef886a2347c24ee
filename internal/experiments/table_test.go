package experiments

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Figure 10", "engine", "reads/txn", "blocked")
	tab.AddRow("HDD", 0.0, 0)
	tab.AddRow("2PL", 6.25, 120)
	out := tab.String()
	if !strings.Contains(out, "Figure 10") || !strings.Contains(out, "engine") {
		t.Fatalf("missing title/header:\n%s", out)
	}
	if !strings.Contains(out, "6.25") || !strings.Contains(out, "HDD") {
		t.Fatalf("missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// Columns align: separator row as wide as the header row.
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("separator misaligned:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		123.456: "123.5",
		12.345:  "12.35",
		0.1234:  "0.1234",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 4) != 2.5 {
		t.Fatal("Ratio broken")
	}
	if Ratio(10, 0) != 0 {
		t.Fatal("Ratio by zero should be 0")
	}
}
