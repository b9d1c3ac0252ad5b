package store

import (
	"bytes"
	"reflect"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/sched"
)

// FuzzBinaryDecode hammers the binary decoder with corrupted streams:
// whatever the input — bad magic, truncated headers, forged varints,
// wrong CRCs, lying trailers — DecodeTrace must return an error or a
// trace, never panic, and anything it accepts must re-encode canonically.
// Seeds are the encodings of one captured trace per benchmark app,
// targeted corruptions of a known-good stream, and a header that declares
// a 64 MB payload it does not hold.
func FuzzBinaryDecode(f *testing.F) {
	for _, app := range apps.All() {
		run, err := sched.Run(app, app.Tests[0], sched.Options{Seed: 1})
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodeTrace(run.Trace)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	good, err := EncodeTrace(sampleTrace())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(good[:5])
	f.Add(good[:len(good)/2])
	f.Add(append([]byte("XXXX\x01"), good[5:]...))
	f.Add(append(append([]byte{}, good...), 0x00))
	crcFlip := append([]byte{}, good...)
	crcFlip[len(crcFlip)-6] ^= 0x80
	f.Add(crcFlip)
	f.Add(forgedPayloadLength())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data)
		if err != nil {
			return
		}
		// Accepted input: the decoded trace must re-encode and round-trip.
		enc, err := EncodeTrace(tr)
		if err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		tr2, err := DecodeTrace(enc)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(tr.Events, tr2.Events) {
			t.Fatal("re-encode round trip changed events")
		}
		// Canonical encodings are a fixpoint: re-encoding what the second
		// decode produced changes nothing (byte-identity of the *first*
		// re-encode is deliberately not asserted — a valid stream may use
		// a non-canonical block size or flate framing).
		enc2, err := EncodeTrace(tr2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixpoint")
		}
	})
}
