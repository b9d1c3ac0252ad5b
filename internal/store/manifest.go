// Manifest persistence: the corpus index as a JSON document, rewritten
// atomically (write-then-rename in the corpus's tmp/ staging area) after
// every mutation so readers never observe a torn index. The manifest is a
// cache — Open rebuilds it from the blobs when it is missing or corrupt.
//
// The in-memory index is a key-sorted slice of rows, each holding an
// entry and its JSON, encoded once when the entry is indexed; a rewrite
// concatenates the rows instead of sorting and re-marshalling every
// entry, so it costs a copy of the document rather than O(N) encodes per
// ingest.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// manifestVersion guards the index schema; a reader that sees a different
// version falls back to a rebuild from the blobs.
const manifestVersion = 1

// manifest is the on-disk index schema. Entries are sorted by key.
type manifest struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
}

// manifestRow is one indexed entry with its encoded form inside
// manifest.json: exactly the bytes json.MarshalIndent(manifest{...}, "",
// "  ") writes for the entry at its nesting depth.
type manifestRow struct {
	entry Entry
	json  []byte
}

// findLocked returns the position of key in c.rows, or where it would be
// inserted, and whether it is present. Callers hold c.mu.
func (c *Corpus) findLocked(key string) (int, bool) {
	return slices.BinarySearchFunc(c.rows, key, func(r manifestRow, key string) int {
		return strings.Compare(r.entry.Key, key)
	})
}

// indexLocked adds or replaces e and its manifest row, keeping c.rows
// sorted by key. Callers hold c.mu or own c exclusively.
func (c *Corpus) indexLocked(e Entry) {
	data, err := json.MarshalIndent(e, "    ", "  ")
	if err != nil {
		panic(err) // Entry has only string and integer fields
	}
	row := manifestRow{entry: e, json: append([]byte("    "), data...)}
	if i, found := c.findLocked(e.Key); found {
		c.rows[i] = row
	} else {
		c.rows = slices.Insert(c.rows, i, row)
	}
}

// loadManifest reads and validates the index file.
func loadManifest(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: manifest version %d (want %d)", m.Version, manifestVersion)
	}
	for i, e := range m.Entries {
		if e.Key == "" {
			return nil, fmt.Errorf("store: manifest entry %d has no key", i)
		}
	}
	return m.Entries, nil
}

// saveManifestLocked atomically rewrites the index. Callers hold c.mu.
func (c *Corpus) saveManifestLocked() error {
	data := append(c.manifestBuf[:0], "{\n  \"version\": "...)
	data = strconv.AppendInt(data, manifestVersion, 10)
	data = append(data, ",\n  \"entries\": ["...)
	for i, r := range c.rows {
		if i > 0 {
			data = append(data, ',')
		}
		data = append(data, '\n')
		data = append(data, r.json...)
	}
	if len(c.rows) > 0 {
		data = append(data, "\n  "...)
	}
	data = append(data, "]\n}\n"...)
	c.manifestBuf = data
	tmp, err := os.CreateTemp(filepath.Join(c.dir, "tmp"), "manifest-*")
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: manifest: %w", err)
	}
	if err := os.Rename(tmpName, c.manifestPath()); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: manifest: %w", err)
	}
	return nil
}
