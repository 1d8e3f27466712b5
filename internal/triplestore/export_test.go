package triplestore

// NDJSONChunkOps exports the ingest chunk bound for tests.
const NDJSONChunkOps = ndjsonChunkOps

// SetNDJSONChunkHook installs an observer over the chunk sizes
// ApplyNDJSON applies, returning a restore function. Tests use it to
// assert the streaming ingest path never buffers more than one chunk.
func SetNDJSONChunkHook(hook func(n int)) (restore func()) {
	prev := ndjsonChunkHook
	ndjsonChunkHook = hook
	return func() { ndjsonChunkHook = prev }
}

// CachedStats returns the relation's cached statistics without
// computing them, and whether there are any.
func (r *Relation) CachedStats() (RelStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stats == nil {
		return RelStats{}, false
	}
	return *r.stats, true
}
