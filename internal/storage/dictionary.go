package storage

import (
	"strings"
	"sync"
)

// Dictionary maps strings to dense int32 codes so string columns can be
// stored as fixed-width words, the invariant dbTouch relies on for direct
// positional addressing (paper §2.6).
//
// The dictionary is internally synchronized: live ingestion appends
// (Intern) may race exploration sessions decoding codes (Lookup) on the
// same dictionary, because column snapshots share their table's
// dictionary across append epochs. Codes are assigned once and never
// reassigned, so a code observed through a published snapshot always
// decodes to the same string. Lookup/Code sit off the span hot path (the
// filter kernels memoize per-code outcomes), so the lock is not a
// kernel-loop cost.
type Dictionary struct {
	mu     sync.RWMutex
	values []string
	index  map[string]int32
}

// NewDictionary returns an empty dictionary ready for interning.
func NewDictionary() *Dictionary {
	return &Dictionary{index: make(map[string]int32)}
}

// Intern returns the code for s, assigning a new code on first sight.
func (d *Dictionary) Intern(s string) int32 {
	d.mu.RLock()
	code, ok := d.index[s]
	d.mu.RUnlock()
	if ok {
		return code
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if code, ok := d.index[s]; ok {
		return code
	}
	// Keep a copy: s may be a substring of something much larger (a cell
	// of a decoded append body), and the dictionary lives as long as the
	// table.
	s = strings.Clone(s)
	code = int32(len(d.values))
	d.values = append(d.values, s)
	d.index[s] = code
	return code
}

// internBytes is Intern for a key held in a byte slice: a known key is
// found without converting it, so only a first sight allocates.
func (d *Dictionary) internBytes(b []byte) int32 {
	d.mu.RLock()
	code, ok := d.index[string(b)]
	d.mu.RUnlock()
	if ok {
		return code
	}
	return d.Intern(string(b))
}

// appendCodes appends the codes of key(0), …, key(n-1) to codes,
// interning new strings. The read lock is held across the batch and
// dropped only around a first sight, so a batch of known keys costs one
// lock round trip, not one per cell.
func (d *Dictionary) appendCodes(codes []int32, n int, key func(i int) string) []int32 {
	d.mu.RLock()
	for i := 0; i < n; i++ {
		s := key(i)
		code, ok := d.index[s]
		if !ok {
			d.mu.RUnlock()
			code = d.Intern(s)
			d.mu.RLock()
		}
		codes = append(codes, code)
	}
	d.mu.RUnlock()
	return codes
}

// Lookup returns the string for a code; unknown codes decode to "".
func (d *Dictionary) Lookup(code int32) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if code < 0 || int(code) >= len(d.values) {
		return ""
	}
	return d.values[code]
}

// Len reports the number of distinct strings interned.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.values)
}

// Clone returns an independent copy of the dictionary.
func (d *Dictionary) Clone() *Dictionary {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c := &Dictionary{
		values: append([]string(nil), d.values...),
		index:  make(map[string]int32, len(d.index)),
	}
	for s, code := range d.index {
		c.index[s] = code
	}
	return c
}
