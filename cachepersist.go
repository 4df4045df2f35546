package tuffy

// Result-cache persistence for the serving layer. With ServerConfig.DataDir
// set, Close / CheckpointCache serialize the cache to DataDir/cache.tfy and
// Serve reloads it, so a warm-started tuffyd answers its pre-crash working
// set from cache immediately.
//
// Why reloading is sound: every entry is epoch-keyed ("e<gen>|..."), and the
// cache is only written after the engines' own updates are durable, so a
// persisted entry's epoch is at most the epoch the engines recover to.
// Engine epochs are monotone and never reused; a reloaded entry therefore
// either carries the recovered epoch — in which case its answer is, by the
// engine's bit-identical replay guarantee, exactly what a fresh run would
// produce — or a superseded epoch, in which case no lookup can ever reach
// it (lookups use the current epoch's prefix) and the next sweep or FIFO
// eviction collects it.
//
// Unlike the engine snapshot, the cache file is never a source of truth: a
// missing, truncated, corrupt, or program-mismatched file just starts the
// cache empty.

import (
	"os"
	"path/filepath"

	"tuffy/internal/codec"
	"tuffy/internal/mln"
)

const (
	cacheMagic   = "TFYCACH1"
	cacheVersion = 1
	cacheFile    = "cache.tfy"
)

// CheckpointCache atomically persists the current result cache to
// ServerConfig.DataDir. It is called by Close; exposing it separately lets
// long-running servers checkpoint the cache without shutting down.
func (s *Server) CheckpointCache() error {
	if s.cfg.DataDir == "" || !s.cache.Enabled() {
		return nil
	}
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return err
	}
	eng := s.backends[0].eng
	predIdx := mln.PredIndex(eng.prog)
	// The entry count precedes the entries but is only known once the cache
	// has been walked (it can grow meanwhile), so they are encoded apart.
	var entries codec.Enc
	n := uint32(0)
	s.cache.ForEach(func(key string, v any) {
		r := v.(result)
		entries.Str(key)
		entries.U8(r.tag())
		r.encode(&entries, predIdx)
		n++
	})
	var w codec.Enc
	w.Raw([]byte(cacheMagic))
	w.U32(cacheVersion)
	w.U64(fingerprintProgram(eng.prog, eng.cfg))
	w.U32(n)
	w.Raw(entries.Buf())
	return writeSealed(s.cfg.DataDir, cacheFile, &w, nil)
}

// loadCache refills the cache from DataDir/cache.tfy. Any defect —
// missing file, bad CRC, version or program mismatch, malformed entry —
// abandons the load; entries decoded before the defect are kept (each was
// independently validated).
func (s *Server) loadCache() {
	raw, err := os.ReadFile(filepath.Join(s.cfg.DataDir, cacheFile))
	if err != nil {
		return
	}
	d, err := openSealed(raw, cacheMagic)
	if err != nil {
		return
	}
	eng := s.backends[0].eng
	if d.U32() != cacheVersion || d.U64() != fingerprintProgram(eng.prog, eng.cfg) {
		return
	}
	// An entry is at least a key length and a tag.
	for i, n := 0, d.Count(5); i < n; i++ {
		key := d.Str()
		tag := int(d.U8())
		if d.Err() != nil || tag >= len(queryKinds) || queryKinds[tag] == nil {
			return
		}
		r := queryKinds[tag].decode(d, eng.prog)
		if d.Err() != nil {
			return
		}
		s.cache.Put(key, r)
	}
}
