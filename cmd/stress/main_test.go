package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// tinyLadderGolden holds the SHA-256 of every TSV the tiny stress ladder
// writes: the bound bodies, the "# solver:" counter footers and the
// "# xcheck:" oracle verdicts. The digests are amd64's: fused
// multiply-adds elsewhere change the bits.
var tinyLadderGolden = map[string]string{
	"stress_transit-stub-100_n8.tsv":         "8de5f1ed76a679b9ea35746e2608ae9da85fe0071086ba05ccf75e3559bb72a6",
	"stress_transit-stub-100_n12.tsv":        "23b3c949b46d99c6008933161d161b7b6413b23eaebdc3fa9f603c926672a094",
	"stress_remote-office-clustered_n8.tsv":  "1ee77242ebfcbc6bb69dbfdeb1b5a83108b08afe138aeb796bd3f634b829449e",
	"stress_remote-office-clustered_n12.tsv": "09df8f272e8ccb903335ae5c2431c6034ae6eb85e0debc52a3820208aa2fdbdc",
	"stress_tree-kary-63_n8.tsv":             "10940545ad9473225a0ebcf4e3d13c98523501aa1abd383e9632d008cf4856a7",
	"stress_tree-kary-63_n12.tsv":            "f2f2fbc8eb9ce4d53393941b0b8323150f45f1ec92c5942eba43723099251c5d",
}

// TestTinyLadderGolden pins the tiny stress ladder byte for byte: two
// rungs of the transit-stub and remote-office families and two capped
// tree rungs. A change that moves a bound, a pivot count or an oracle
// verdict on any rung fails here.
func TestTinyLadderGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("ladder digests are recorded on amd64; fused multiply-adds change the bits elsewhere")
	}
	dir := t.TempDir()
	var out, errw strings.Builder
	err := run([]string{"-scenarios", "transit-stub-100,remote-office-clustered,tree-kary-63@12",
		"-sizes", "8,12", "-out", dir}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	written, err := filepath.Glob(filepath.Join(dir, "*.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != len(tinyLadderGolden) {
		t.Errorf("ladder wrote %d TSVs, want %d", len(written), len(tinyLadderGolden))
	}
	for name, want := range tinyLadderGolden {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: digest %s, want %s:\n%s", name, got, want, data)
		}
	}
}

// TestRunTreeRungRecordsOracleVerdict: a tree rung must carry the exact
// oracle's verdict for every supported cell in its TSV footer, so the
// rung's artifact is self-certifying.
func TestRunTreeRungRecordsOracleVerdict(t *testing.T) {
	dir := t.TempDir()
	var out, errw strings.Builder
	err := run([]string{"-scenarios", "tree-kary-63", "-sizes", "10", "-out", dir}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}

	tsv, err := os.ReadFile(filepath.Join(dir, "stress_tree-kary-63_n10.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	var classes []string
	for _, line := range strings.Split(string(tsv), "\n") {
		if !strings.HasPrefix(line, "# xcheck: engine=exact ") {
			continue
		}
		f := footerFields(line)
		classes = append(classes, f["class"])
		if f["verdict"] != verdictOK {
			t.Errorf("%s qos=%s: verdict %q", f["class"], f["qos"], f["verdict"])
		}
		lpBound, exactCost, cert := parseFloat(t, f["lp"]), parseFloat(t, f["exact"]), parseFloat(t, f["cert"])
		// lp and cert are printed to six significant digits.
		tol := 1e-5 * math.Max(1, math.Abs(exactCost))
		if !(lpBound <= exactCost+tol && exactCost <= cert+tol) {
			t.Errorf("%s qos=%s: oracle chain violated: lp=%g exact=%g cert=%g",
				f["class"], f["qos"], lpBound, exactCost, cert)
		}
	}
	if got := strings.Join(classes, ","); got != "general,tree-upwards" {
		t.Errorf("exact xcheck footers for classes %q, want general,tree-upwards:\n%s", got, tsv)
	}
}

// footerFields splits a "# xcheck:" footer into its key=value fields.
func footerFields(line string) map[string]string {
	f := map[string]string{}
	for _, kv := range strings.Fields(line) {
		if k, v, ok := strings.Cut(kv, "="); ok {
			f[k] = v
		}
	}
	return f
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("footer value %q: %v", s, err)
	}
	return v
}

// TestRunXCheckExactOff: the oracle is skippable, and non-tree scenarios
// never produce exact records even with it on.
func TestRunXCheckExactOff(t *testing.T) {
	dir := t.TempDir()
	var out, errw strings.Builder
	err := run([]string{"-scenarios", "tree-kary-63", "-sizes", "10", "-xcheck-exact=false", "-out", dir}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	tsv, err := os.ReadFile(filepath.Join(dir, "stress_tree-kary-63_n10.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(tsv), "engine=exact") {
		t.Errorf("-xcheck-exact=false still wrote oracle footers:\n%s", tsv)
	}
}

// TestRunStreamedRungByteIdentical: a WithNodes-rescaled GROUP rung
// compiled through the streamed path (no materialized trace) must write
// exactly the TSV the materialized path writes — streaming is a memory
// optimization for big-N rungs, never a different answer.
func TestRunStreamedRungByteIdentical(t *testing.T) {
	read := func(mode string) []byte {
		t.Helper()
		dir := t.TempDir()
		var out, errw strings.Builder
		err := run([]string{"-scenarios", "remote-office-clustered", "-sizes", "10",
			"-stream", mode, "-xcheck-exact=false", "-out", dir}, &out, &errw)
		if err != nil {
			t.Fatalf("run -stream %s: %v\nstderr: %s", mode, err, errw.String())
		}
		tsv, err := os.ReadFile(filepath.Join(dir, "stress_remote-office-clustered_n10.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		return tsv
	}
	streamed, materialized := read("on"), read("off")
	if string(streamed) != string(materialized) {
		t.Fatalf("streamed rung TSV differs from materialized:\n--- off ---\n%s--- on ---\n%s",
			materialized, streamed)
	}
}

// TestRunRejectsBadFlags: flag errors surface instead of os.Exit-ing.
func TestRunRejectsBadFlags(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-sizes", "2"}, &out, &errw); err == nil {
		t.Error("ladder size 2 accepted")
	}
	if err := run([]string{"-no-such-flag"}, &out, &errw); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-stream", "maybe"}, &out, &errw); err == nil {
		t.Error("unknown -stream mode accepted")
	}
}
