package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"sherlock/internal/trace"
)

// oneBlockStream builds a stream whose single block header declares rawLen
// and compLen, followed by a CRC over payload and payload itself. No
// trailer follows the block.
func oneBlockStream(rawLen, compLen uint64, payload []byte) []byte {
	b := append([]byte(Magic), Version)
	b = appendString(b, "A")
	b = appendString(b, "T")
	b = appendVarint(b, 1)
	b = appendUvarint(b, DefaultBlockEvents)
	b = appendUvarint(b, 1) // events in the block
	b = appendUvarint(b, rawLen)
	b = appendUvarint(b, compLen)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// forgedPayloadLength is a 22-byte stream whose block header declares a
// compressed payload of maxBlockRaw bytes that the stream does not hold.
func forgedPayloadLength() []byte { return oneBlockStream(16, maxBlockRaw, nil) }

// deflate compresses raw the way the writer does.
func deflate(t testing.TB, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The decoder must not size buffers from header lengths: a stream that
// declares a 64 MB payload or a 64 MB inflated block, but holds a few
// bytes, fails with ErrFormat after allocating only what it read.
func TestDecodeForgedLengths(t *testing.T) {
	forged := forgedPayloadLength()
	if len(forged) != 22 {
		t.Fatalf("forged stream is %d bytes, want 22", len(forged))
	}
	payload := deflate(t, []byte{0})
	cases := map[string][]byte{
		"compressed length": forged,
		"raw length":        oneBlockStream(maxBlockRaw, uint64(len(payload)), payload),
	}
	for name, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeTrace(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", name, len(data), alloc)
		}
	}
}

// Pooled compressors and decompressors are shared across goroutines:
// concurrent encodes and decodes must equal sequential ones, and a
// decompressor returned to the pool after a corrupt block must not
// poison the next decode.
func TestCodecConcurrent(t *testing.T) {
	traces := appTraces(t)
	want := make([][]byte, len(traces))
	decoded := make([]*trace.Trace, len(traces))
	for i, tr := range traces {
		data, err := EncodeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = data
		if decoded[i], err = DecodeTrace(data); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i := w; i < len(traces); i += workers {
					data, err := EncodeTrace(traces[i])
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(data, want[i]) {
						errs <- fmt.Errorf("trace %d: concurrent encoding differs from sequential", i)
						return
					}
					got, err := DecodeTrace(data)
					if err != nil {
						errs <- fmt.Errorf("trace %d: %w", i, err)
						return
					}
					if !reflect.DeepEqual(got, decoded[i]) {
						errs <- fmt.Errorf("trace %d: concurrent decode differs from sequential", i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Corrupt blocks with valid CRCs fail inside the decompressor: an
	// invalid block type, and a valid deflate stream cut short.
	valid := deflate(t, bytes.Repeat([]byte("sherlock"), 512))
	corrupt := [][]byte{
		oneBlockStream(16, 4, []byte{0xff, 0xff, 0xff, 0xff}),
		oneBlockStream(8*512, uint64(len(valid)/2), valid[:len(valid)/2]),
	}
	for i, data := range corrupt {
		if _, err := DecodeTrace(data); !errors.Is(err, ErrFormat) {
			t.Errorf("corrupt stream %d: err = %v, want ErrFormat", i, err)
		}
		for j, data := range want {
			got, err := DecodeTrace(data)
			if err != nil {
				t.Fatalf("trace %d after corrupt stream %d: %v", j, i, err)
			}
			if !reflect.DeepEqual(got, decoded[j]) {
				t.Fatalf("trace %d after corrupt stream %d decodes differently", j, i)
			}
		}
	}
}

// manifest.json must be byte-identical to marshalling the whole index,
// whatever path produced it: ingests, a repair re-ingest, a rebuild, and
// ingests after reopening from a saved manifest.
func TestManifestBytes(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]Entry{}
	check := func(when string) {
		t.Helper()
		entries := make([]Entry, 0, len(index))
		for _, e := range index {
			entries = append(entries, e)
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
		want, err := json.MarshalIndent(manifest{Version: manifestVersion, Entries: entries}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: manifest.json differs from MarshalIndent:\n got %s\nwant %s", when, got, want)
		}
	}
	ingest := func(c *Corpus, i int) Entry {
		t.Helper()
		tr := sampleTrace()
		tr.App = fmt.Sprintf(`App "%d" <&>`, i%5)
		tr.Test = fmt.Sprintf("Tests::<T&%d>", i)
		tr.Seed = int64(i)
		e, added, err := c.Ingest(tr)
		if err != nil || !added {
			t.Fatalf("ingest %d: added=%v err=%v", i, added, err)
		}
		index[e.Key] = e
		return e
	}

	var first Entry
	for i := 0; i < 40; i++ {
		e := ingest(c, i)
		if i == 0 {
			first = e
		}
		check(fmt.Sprintf("after ingest %d", i))
	}

	// A manifest entry whose blob is gone: Ingest stores the blob again
	// and rewrites the manifest.
	if err := c.DropBlob(first.Key); err != nil {
		t.Fatal(err)
	}
	ingest(c, 0)
	check("after drop and re-ingest")

	if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	if c, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	check("after rebuild")

	if c, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	ingest(c, 40)
	check("after reopen and ingest")
}

// BenchmarkEncodeTrace encodes one captured app trace per iteration.
func BenchmarkEncodeTrace(b *testing.B) {
	traces := appTraces(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeTrace(traces[i%len(traces)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusIngest ingests one new captured app trace per iteration
// into a growing on-disk corpus: encode, hash, blob write and manifest
// rewrite.
func BenchmarkCorpusIngest(b *testing.B) {
	traces := appTraces(b)
	c, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := *traces[i%len(traces)]
		tr.Seed = int64(i) // a distinct key per iteration
		if _, added, err := c.Ingest(&tr); err != nil || !added {
			b.Fatalf("ingest %d: added=%v err=%v", i, added, err)
		}
	}
}
