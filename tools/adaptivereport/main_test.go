package main

import (
	"bytes"
	"os"
	"testing"
)

// TestReportGolden pins the EXPERIMENTS.md record byte for byte. Its
// "characterizations" columns count each run's engine memo misses, so the
// golden also pins how much engine work every run does.
func TestReportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	report(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("report differs from testdata/report.golden:\n%s", got.Bytes())
	}
}
