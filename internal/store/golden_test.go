package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/sched"
)

// goldenKeyHash is the SHA-256 over the content address of every test of
// the eight paper apps at goldenKeySeeds. Job keys, corpus dedup and
// cluster anti-entropy all depend on these addresses, so it pins the
// canonical encoding across builds: a codec change that shifts every
// encoding alike passes every round-trip test but fails this one.
// Update it only for an intended change to the binary format.
const goldenKeyHash = "d0d8ba14b832a0649ad4e2bea4122b1668f1a6b07d48b3e74d2cb7671e1aaa7e"

var goldenKeySeeds = []int64{1, 7, 1009}

func TestKeyGolden(t *testing.T) {
	h := sha256.New()
	n := 0
	for _, app := range apps.All() {
		for _, test := range app.Tests {
			for _, seed := range goldenKeySeeds {
				run, err := sched.Run(app, test, sched.Options{Seed: seed})
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", app.Name, test.Name, seed, err)
				}
				key, err := Key(run.Trace)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", app.Name, test.Name, seed, err)
				}
				fmt.Fprintf(h, "%s/%s %d %s\n", app.Name, test.Name, seed, key)
				n++
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenKeyHash {
		t.Fatalf("golden key hash over %d traces = %s, want %s", n, got, goldenKeyHash)
	}
}
