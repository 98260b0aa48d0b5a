package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	pact "repro"
	"repro/internal/netgen"
	"repro/internal/service"
)

func TestRunLadder(t *testing.T) {
	in := strings.NewReader(netgen.Ladder(100, 250, 1.35e-12).String())
	var out, errw bytes.Buffer
	if err := run(context.Background(), []string{"-fmax", "5e9", "-verify"}, in, &out, &errw); err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, errw.String())
	}
	if !strings.Contains(out.String(), "rpact1") || !strings.Contains(out.String(), ".end") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "-> 1 poles") {
		t.Fatalf("stats missing:\n%s", errw.String())
	}
	if !strings.Contains(errw.String(), "verify") {
		t.Fatalf("verify lines missing:\n%s", errw.String())
	}
}

// TestRunVerboseKernelStats checks the -v factorization line: a
// 100-node ladder is below the supernodal dispatch threshold, so the
// report must name the up-looking kernel and carry the solve counters.
func TestRunVerboseKernelStats(t *testing.T) {
	in := strings.NewReader(netgen.Ladder(100, 250, 1.35e-12).String())
	var out, errw bytes.Buffer
	if err := run(context.Background(), []string{"-fmax", "5e9", "-v"}, in, &out, &errw); err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, errw.String())
	}
	stats := errw.String()
	if !strings.Contains(stats, "cholesky up-looking") {
		t.Fatalf("kernel line missing or wrong kernel:\n%s", stats)
	}
	if !strings.Contains(stats, "solves") || !strings.Contains(stats, "GFLOP") {
		t.Fatalf("kernel counters missing:\n%s", stats)
	}
}

// TestRunVerboseMultiPointStages checks that -v names the multi-point
// stages on a multi-point run of a small wide-band deck, and leaves them
// out of a single-point run.
func TestRunVerboseMultiPointStages(t *testing.T) {
	deck, _, err := netgen.WideBand(netgen.WideBandPreset(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args  []string
		multi bool
	}{
		{[]string{"-fmax", "5e9", "-v", "-shifts", "0,1e9,5e9"}, true},
		{[]string{"-fmax", "5e9", "-v"}, false},
	} {
		var out, errw bytes.Buffer
		if err := run(context.Background(), tc.args, strings.NewReader(deck.String()), &out, &errw); err != nil {
			t.Fatalf("%v: %v\nstderr:\n%s", tc.args, err, errw.String())
		}
		stats := errw.String()
		if !strings.Contains(stats, "rcfit: stages: parse") {
			t.Fatalf("%v: stage line missing:\n%s", tc.args, stats)
		}
		if got := strings.Contains(stats, "shift_factor") && strings.Contains(stats, "basis_union"); got != tc.multi {
			t.Fatalf("%v: multi-point stages printed = %v, want %v:\n%s", tc.args, got, tc.multi, stats)
		}
	}
}

func TestRunRequiresFmax(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), nil, strings.NewReader("t\n.end\n"), &out, &errw); err == nil {
		t.Fatal("missing -fmax accepted")
	}
}

func TestRunBadDeck(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), []string{"-fmax", "1e9"}, strings.NewReader("t\nz1 bogus\n.end\n"), &out, &errw); err == nil {
		t.Fatal("bad deck accepted")
	}
}

func TestRunExtraPorts(t *testing.T) {
	deck := `pure rc with forced port
v1 a 0 dc 1
r1 a b 1
r2 b c 1
c1 c 0 1p
.end
`
	var out, errw bytes.Buffer
	if err := run(context.Background(), []string{"-fmax", "1e9", "-ports", "c", "-q"}, strings.NewReader(deck), &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), " c ") && !strings.Contains(out.String(), " c\n") {
		t.Fatalf("forced port c missing from reduced deck:\n%s", out.String())
	}
}

// TestRunExtraPortsNormalized checks that -ports names are matched the
// way the parser reads node fields: case-insensitively and with the
// spaces of a "n1, n2" list trimmed.
func TestRunExtraPortsNormalized(t *testing.T) {
	deck := `pure rc, ports named in upper case
V1 N0 0 DC 1
R1 N0 N1 100
R2 N1 N2 100
C1 N2 0 1P
.END
`
	for _, ports := range []string{"N2", "n1, n2"} {
		var out, errw bytes.Buffer
		if err := run(context.Background(), []string{"-fmax", "1e9", "-ports", ports, "-q"}, strings.NewReader(deck), &out, &errw); err != nil {
			t.Fatalf("-ports %q: %v", ports, err)
		}
		if !strings.Contains(out.String(), " n2 ") && !strings.Contains(out.String(), " n2\n") {
			t.Fatalf("-ports %q: forced port n2 missing from reduced deck:\n%s", ports, out.String())
		}
	}
}

func TestRunSubcktOutput(t *testing.T) {
	in := strings.NewReader(netgen.Ladder(40, 250, 1.35e-12).String())
	var out, errw bytes.Buffer
	if err := run(context.Background(), []string{"-fmax", "5e9", "-subckt", "-q"}, in, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ".subckt pactnet") {
		t.Fatalf("subckt output missing:\n%s", out.String())
	}
}

func TestRunTimeoutInterruptsLargeReduction(t *testing.T) {
	// A 20000-segment ladder takes far longer than 1ms to reduce; the
	// -timeout deadline must interrupt it cooperatively, report the
	// timeout, and leave no worker goroutines behind.
	in := strings.NewReader(netgen.Ladder(20000, 250, 1.35e-12).String())
	var out, errw bytes.Buffer
	base := runtime.NumGoroutine()
	start := time.Now()
	err := run(context.Background(), []string{"-fmax", "5e9", "-timeout", "1ms", "-q"}, in, &out, &errw)
	if err == nil {
		t.Skip("reduction finished before the deadline on this machine")
	}
	if !strings.Contains(err.Error(), "did not finish within -timeout") {
		t.Fatalf("err = %v, want the -timeout report", err)
	}
	// main maps this to the documented cancellation exit code 2.
	if !pact.IsCancellation(err) {
		t.Fatalf("timeout error %v is not typed as a cancellation", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v, not cooperative", elapsed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after timeout: %d live, want <= %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRcfitMatchesRcfitd reduces decks through rcfit and through an
// in-process rcfitd server, giving the same options once as flags and once
// as /reduce query parameters, and requires byte-identical decks. Between
// them the vectors set every request option; the wide-band vector is the
// multi-point many-port request where a front-end default once differed.
func TestRcfitMatchesRcfitd(t *testing.T) {
	wide, _, err := netgen.WideBand(netgen.WideBandPreset(256))
	if err != nil {
		t.Fatal(err)
	}
	ladder := netgen.Ladder(60, 250, 1.35e-12).String()
	srv := service.New(service.Config{Workers: 1})
	defer srv.Close()
	covered := map[string]bool{}
	for _, tc := range []struct {
		deck string
		args []string
	}{
		{wide.String(), []string{"-fmax=2e10", "-shifts=0,2e10", "-maxpoles=48"}},
		{ladder, []string{"-fmax=5e9", "-tol=0.02", "-sparsify=1e-8", "-prefix=red", "-twopass=true", "-subckt=true"}},
		{ladder, []string{"-fmax=5e9", "-shifts=5e9,0", "-portcluster=2", "-ports=N30,n10"}},
	} {
		var out, errw bytes.Buffer
		if err := run(context.Background(), append(tc.args, "-q"), strings.NewReader(tc.deck), &out, &errw); err != nil {
			t.Fatalf("rcfit %v: %v\nstderr:\n%s", tc.args, err, errw.String())
		}
		q := url.Values{}
		for _, arg := range tc.args {
			name, value, _ := strings.Cut(strings.TrimPrefix(arg, "-"), "=")
			q.Set(name, value)
			covered[name] = true
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reduce?"+q.Encode(), strings.NewReader(tc.deck)))
		var resp service.ReduceResponse
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("rcfitd %s: status %d, decode error %v", q.Encode(), rec.Code, err)
		}
		if resp.Deck != out.String() {
			t.Errorf("%v: rcfit wrote %d bytes, rcfitd returned %d different ones",
				tc.args, out.Len(), len(resp.Deck))
		}
	}
	fs := flag.NewFlagSet("options", flag.ContinueOnError)
	new(pact.Options).RegisterFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			t.Errorf("request option %s is not exercised", f.Name)
		}
	})
}
