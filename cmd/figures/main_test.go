package main

import (
	"bytes"
	"strings"
	"testing"
)

// dataRows returns the table rows below the header's dashed separator.
func dataRows(t *testing.T, out string) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "---") {
			return lines[i+1:]
		}
	}
	t.Fatalf("no table in output:\n%s", out)
	return nil
}

func TestFigure6PrintsOneRowPerWorkerCount(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-figure", "6", "-workers", "2", "-measure", "100ms"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if rows := dataRows(t, out.String()); len(rows) != 2 {
		t.Fatalf("got %d rows, want 2:\n%s", len(rows), out.String())
	}
}

func TestFigure6CSVHeader(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-figure", "6", "-workers", "1", "-measure", "100ms", "-csv"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "\nworkers,ksignatures/sec\n") {
		t.Fatalf("no CSV header in output:\n%s", out.String())
	}
}

func TestUnknownFigureFails(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-figure", "5"}, &out); err == nil {
		t.Fatalf("-figure 5 ran:\n%s", out.String())
	}
}
