package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"quickstore/internal/harness"
)

// TestExpAllGolden pins the paper tables: "oo7bench -exp all" must print
// testdata/exp_all.golden byte for byte. Every number in it is a count or a
// sum of cost-model charges, so a change that moves one has changed what the
// reproduction measures (or the order its floats are added in) and must say
// so by regenerating the file:
//
//	go run ./cmd/oo7bench -exp all > cmd/oo7bench/testdata/exp_all.golden
func TestExpAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three small OO7 databases and runs every experiment (about 8 s)")
	}
	want, err := os.ReadFile("testdata/exp_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := harness.NewSuite(&got, false).Run([]string{"all"}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs from testdata/exp_all.golden:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, testdata/exp_all.golden %d", len(gotLines), len(wantLines))
}
