package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"sherlock/internal/apps"
	"sherlock/internal/gen"
)

// goldenInferHash is the SHA-256 of the JSON results (wall clock zeroed)
// of a default campaign on the eight paper apps plus one generated app
// per profile. The equivalence suites compare configurations of one build
// against each other; this constant pins the results across builds, so a
// speed change that silently alters inference fails here. Update it only
// for an intended change to inference.
const goldenInferHash = "243e620964f889f7ed491fed84ceaa2ecd46b0fb26c6af5deb288a4e798f159f"

func TestInferGolden(t *testing.T) {
	names := apps.Names()
	names = append(names, gen.SampleNames()...)
	h := sha256.New()
	for _, name := range names {
		p, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Infer(context.Background(), p, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h.Write(resultBytes(t, res))
		h.Write([]byte{'\n'})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenInferHash {
		t.Fatalf("golden inference hash over %d apps = %s, want %s", len(names), got, goldenInferHash)
	}
}
