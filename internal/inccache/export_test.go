package inccache

import (
	"encoding/binary"
	"hash/fnv"
)

// ReversionForTest rewrites a valid cache file's format version to a future
// value and fixes up the trailing checksum, so version-skew handling can be
// exercised without also tripping the corruption check.
func ReversionForTest(data []byte) []byte {
	out := append([]byte(nil), data...)
	if len(out) < len(diskMagic)+9 {
		return out
	}
	out[len(diskMagic)] = diskVersion + 1
	h := fnv.New64a()
	_, _ = h.Write(out[:len(out)-8])
	binary.LittleEndian.PutUint64(out[len(out)-8:], h.Sum64())
	return out
}

// SetMaxModulesForTest bounds the per-module analysis memo to n entries.
func (s *Store) SetMaxModulesForTest(n int) {
	s.mu.Lock()
	s.maxMods = n
	s.mu.Unlock()
}

// ModulesForTest returns the number of memoized module analyses.
func (s *Store) ModulesForTest() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mods)
}
