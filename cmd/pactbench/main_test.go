package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-list"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"eq20", "fig3", "table1", "table2", "table3", "table4", "sec4", "awe", "sparsify", "ordering"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("experiment %q missing from -list:\n%s", want, out.String())
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-ex", "eq20"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "4.65 GHz") && !strings.Contains(out.String(), "4.7") {
		t.Fatalf("eq20 output unexpected:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-ex", "zzz"}, &out, &errw); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunOutputDir writes a known experiment's report into the -o
// directory, and rejects an unknown name before creating any file.
func TestRunOutputDir(t *testing.T) {
	for _, tc := range []struct {
		ex      string
		wantErr bool
		files   []string
	}{
		{ex: "eq20", files: []string{"eq20.txt"}},
		{ex: "zzz", wantErr: true},
	} {
		t.Run(tc.ex, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "reports")
			var out, errw bytes.Buffer
			err := run([]string{"-ex", tc.ex, "-o", dir}, &out, &errw)
			if (err != nil) != tc.wantErr {
				t.Fatalf("run -ex %s: err = %v, want error %v", tc.ex, err, tc.wantErr)
			}
			entries, _ := os.ReadDir(dir)
			var got []string
			for _, e := range entries {
				got = append(got, e.Name())
			}
			if strings.Join(got, ",") != strings.Join(tc.files, ",") {
				t.Fatalf("-o %s holds %v, want %v", dir, got, tc.files)
			}
			for _, name := range tc.files {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(string(data), "passive: true") {
					t.Fatalf("report content:\n%s", data)
				}
			}
		})
	}
}
