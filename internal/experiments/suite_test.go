package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt from the current render")

// digestFile pins every experiment's RunOne output by SHA-256, one
// "<ID> <hex>" line per experiment in presentation order.
const digestFile = "testdata/digests.txt"

// suiteRender is one serial RunAll of the whole suite, split back into the
// sections RunOne wrote for each experiment.
type suiteRender struct {
	out []byte
	// sections[i] is All()[i]'s RunOne output: header, rows, blank line.
	sections [][]byte
	err      error
}

// serialSuite renders the suite once per test binary. Every full-suite test
// asserts against this one render instead of paying for its own.
var serialSuite = sync.OnceValue(func() suiteRender {
	var buf bytes.Buffer
	err := RunAll(&buf)
	return suiteRender{out: buf.Bytes(), sections: splitSections(buf.Bytes()), err: err}
})

// serialRender returns the memoized render, skipping under -short and
// failing the test if RunAll failed.
func serialRender(t *testing.T) suiteRender {
	t.Helper()
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	r := serialSuite()
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r
}

// sectionHeader is the line RunOne opens an experiment's section with.
func sectionHeader(e Experiment) string {
	return fmt.Sprintf("== %s: %s ==\n", e.ID, e.Title)
}

// splitSections cuts RunAll output back into per-experiment sections at the
// known headers, working back from the last one. A section whose header is
// absent stays nil.
func splitSections(out []byte) [][]byte {
	all := All()
	sections := make([][]byte, len(all))
	for i := len(all) - 1; i >= 0; i-- {
		if j := bytes.LastIndex(out, []byte(sectionHeader(all[i]))); j >= 0 {
			sections[i], out = out[j:], out[:j]
		}
	}
	return sections
}

// TestFigureDigests pins every registered experiment's rendered output. A
// refactor that must not change results proves it here; a deliberate change
// re-pins with
//
//	go test ./internal/experiments -run TestFigureDigests -update
//
// and records the reason in CHANGES.md.
func TestFigureDigests(t *testing.T) {
	r := serialRender(t)
	all := All()
	got := make(map[string]string, len(all))
	var file strings.Builder
	for i, e := range all {
		sum := sha256.Sum256(r.sections[i])
		got[e.ID] = hex.EncodeToString(sum[:])
		fmt.Fprintf(&file, "%s %s\n", e.ID, got[e.ID])
	}
	if *update {
		if err := os.WriteFile(digestFile, []byte(file.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		pinned[id] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, e := range all {
		want, ok := pinned[e.ID]
		switch {
		case !ok:
			t.Errorf("%s has no pinned digest; rerun with -update", e.ID)
		case got[e.ID] != want:
			t.Errorf("%s output drifted: digest %s, pinned %s", e.ID, got[e.ID], want)
		}
	}
	for id := range pinned {
		if _, ok := got[id]; !ok {
			t.Errorf("%s pins %s, which is not a registered experiment", digestFile, id)
		}
	}
}
