// Package index provides the engine's secondary index: an in-memory
// equality hash index on one column, mapping encoded key bytes
// (tuple.EncodeKey) to heap-file record ids. The planner never reads it;
// the in-database search uses it for its point lookups by clause id, atom
// id and violated-clause id.
package index

import (
	"tuffy/internal/db/storage"
)

// HashIndex is an in-memory equality index: key bytes -> record ids.
type HashIndex struct {
	buckets map[string][]storage.RecordID
}

// NewHashIndex returns an empty hash index.
func NewHashIndex() *HashIndex {
	return &HashIndex{buckets: make(map[string][]storage.RecordID)}
}

// Insert adds one key -> rid mapping. Duplicate keys accumulate.
func (h *HashIndex) Insert(key string, rid storage.RecordID) {
	h.buckets[key] = append(h.buckets[key], rid)
}

// Lookup returns all record ids with the key.
func (h *HashIndex) Lookup(key string) []storage.RecordID {
	return h.buckets[key]
}

// Delete removes one mapping (key, rid); it is a no-op if absent.
func (h *HashIndex) Delete(key string, rid storage.RecordID) {
	ids := h.buckets[key]
	for i, id := range ids {
		if id == rid {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			if len(ids) == 0 {
				delete(h.buckets, key)
			} else {
				h.buckets[key] = ids
			}
			return
		}
	}
}
