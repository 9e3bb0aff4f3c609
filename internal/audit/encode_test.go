package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// legacyEncode is the trail's original encoder (strings.Join over
// ReplaceAll-escaped fields). appendEntry must reproduce it byte for byte:
// the on-disk format did not change when the encoder became append-style.
func legacyEncode(e Entry) []byte {
	esc := func(s string) string {
		s = strings.ReplaceAll(s, "\\", `\\`)
		s = strings.ReplaceAll(s, "\t", `\t`)
		s = strings.ReplaceAll(s, "\n", `\n`)
		return s
	}
	ok := "0"
	if e.OK {
		ok = "1"
	}
	return []byte(strings.Join([]string{
		strconv.FormatUint(e.Seq, 10),
		strconv.FormatInt(e.Time.UnixNano(), 10),
		esc(e.Actor), esc(e.Op), esc(e.Target), ok, esc(e.Note),
	}, "\t"))
}

// goldenBase is the fixed instant golden entries are stamped from.
var goldenBase = time.Unix(1_700_000_000, 0).UTC()

// goldenEdgeEntries covers every escape, empty fields, the zero time,
// extreme sequence numbers and both OK values.
func goldenEdgeEntries() []Entry {
	return []Entry{
		{Seq: 1, Time: goldenBase, Actor: "controller:acme", Op: "CREATE-RECORD", Target: "k1", OK: true},
		{Seq: 2, Time: time.Time{}, Actor: "", Op: "", Target: "", OK: false, Note: ""},
		{Seq: 3, Time: goldenBase.Add(time.Nanosecond), Actor: "a\tb", Op: "o\np", Target: `t\q`, OK: true, Note: "n\t\n\\"},
		{Seq: 4, Time: goldenBase.Add(-time.Hour), Actor: `\\`, Op: "\t\t", Target: "\n\n", Note: `\t literally`},
		{Seq: 5, Time: time.Unix(0, 0).UTC(), Actor: "customer:neo", Op: "READ-DATA-BY-USR", Target: "usr=neo", OK: true, Note: "rows=3"},
		{Seq: 6, Time: time.Unix(-1, 7).UTC(), Actor: "ünïcødé\t", Op: "DELETE", Target: "key\\\n", Note: "trailing\\"},
		{Seq: 1<<64 - 1, Time: time.Unix(0, 1<<62).UTC(), Actor: "regulator:dpa", Op: "GET-SYSTEM-LOGS", Target: "0..∞", OK: true},
	}
}

// goldenBatches is the fixed batch sequence the segment golden test
// appends: the edge entries, then one batch larger than frameBudget that
// also holds a single entry larger than frameBudget, then a short tail.
func goldenBatches() [][]Entry {
	edge := goldenEdgeEntries()
	seq := uint64(len(edge) + 1)
	next := func(e Entry) Entry {
		e.Seq = seq
		e.Time = goldenBase.Add(time.Duration(seq) * time.Microsecond)
		seq++
		return e
	}
	var big []Entry
	for i := 0; i < 3000; i++ {
		note := strings.Repeat("payload\t", 40+i%80)
		if i == 2500 {
			note = strings.Repeat("huge\\", frameBudget/4)
		}
		big = append(big, next(Entry{
			Actor: "customer:u" + strconv.Itoa(i%97), Op: "UPDATE-DATA-BY-KEY",
			Target: "key" + strconv.Itoa(i), OK: i%3 != 0, Note: note,
		}))
	}
	var tail []Entry
	for i := 0; i < 3; i++ {
		tail = append(tail, next(Entry{Actor: "processor:p", Op: "READ-METADATA-BY-KEY", Target: "k\n" + strconv.Itoa(i)}))
	}
	return [][]Entry{edge, big, tail, edge[:1]}
}

// writeGoldenTrail appends batches through the segment store at base and
// closes it, leaving one sealed plaintext segment and its sidecar.
func writeGoldenTrail(t *testing.T, base string, batches [][]Entry) {
	t.Helper()
	store, err := openStore(base, nil, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if _, err := store.append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.close(); err != nil {
		t.Fatal(err)
	}
}

func fileDigest(t *testing.T, path string) (int, string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return len(b), hex.EncodeToString(sum[:])
}

func TestAppendEntryMatchesLegacyEncoding(t *testing.T) {
	for _, batch := range goldenBatches() {
		for _, e := range batch {
			want := legacyEncode(e)
			if got := appendEntry(nil, e); !bytes.Equal(got, want) {
				t.Fatalf("seq %d: appendEntry = %q, want %q", e.Seq, got, want)
			}
			// Appending after existing bytes must leave them alone.
			prefix := []byte("keep\t")
			if got := appendEntry(prefix, e); !bytes.Equal(got[:5], []byte("keep\t")) || !bytes.Equal(got[5:], want) {
				t.Fatalf("seq %d: appendEntry after a prefix = %q", e.Seq, got)
			}
			if n := encodedLen(e); n != len(want) {
				t.Fatalf("seq %d: encodedLen = %d, want %d", e.Seq, n, len(want))
			}
		}
	}
}

// TestSegmentBytesMatchLegacyWriter pins the plaintext segment and sidecar
// bytes of a fixed batch sequence to digests taken from the writer that
// allocated a fresh frame per batch and encoded with legacyEncode. Frame
// boundaries (the frameBudget chunking) and the summary block must not
// move.
func TestSegmentBytesMatchLegacyWriter(t *testing.T) {
	base := filepath.Join(t.TempDir(), "trail.log")
	writeGoldenTrail(t, base, goldenBatches())
	for _, c := range []struct {
		path, digest string
		size         int
	}{
		{segPath(base, 1), "331abf55f5718f3237bd4add537565742eb43fd523910e58566d2a07d9f0f9e6", 3913776},
		{segPath(base, 1) + idxSuffix, "7d0669ef73d9bbd39f3469939719d705b77290748515bab1b6dd033d9d523e64", 298},
	} {
		size, digest := fileDigest(t, c.path)
		if size != c.size || digest != c.digest {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, sha256 %s",
				filepath.Base(c.path), size, digest, c.size, c.digest)
		}
	}
}

// TestLegacyTrailReplays reads a trail committed under testdata/legacy,
// written by the legacy writer from the edge batch, the short tail batch
// and the first edge entry again. Every entry must replay to the same
// encoding, and the sidecar must still decode to the segment's summary.
func TestLegacyTrailReplays(t *testing.T) {
	b := goldenBatches()
	var want []Entry
	for _, batch := range [][]Entry{b[0], b[2], b[3]} {
		want = append(want, batch...)
	}
	base := filepath.Join("testdata", "legacy", "trail.log")
	var got []Entry
	if err := Replay(base, nil, func(e Entry) error {
		got = append(got, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	var bytes int64
	for i := range want {
		enc := legacyEncode(want[i])
		if g := appendEntry(nil, got[i]); string(g) != string(enc) {
			t.Fatalf("entry %d replays as %q, want %q", i, g, enc)
		}
		bytes += int64(len(enc))
	}
	m, err := readSidecar(segPath(base, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.count != int64(len(want)) || m.bytes != bytes {
		t.Fatalf("sidecar count=%d bytes=%d, want %d and %d", m.count, m.bytes, len(want), bytes)
	}
}
