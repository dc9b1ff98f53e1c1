package core

import (
	"time"

	"copa/internal/mac"
)

// Test accessors for the CSI cache.

// SetMaxEntries changes the bound; n <= 0 restores the default. The new
// bound takes effect on the next Put.
func (c *CSICache) SetMaxEntries(n int) {
	if n <= 0 {
		n = DefaultCacheEntries
	}
	c.max = n
}

// Age returns how old the entry for addr is at now, and whether it exists
// at all.
func (c *CSICache) Age(addr mac.Addr, now time.Duration) (time.Duration, bool) {
	e, ok := c.entries[addr]
	if !ok {
		return 0, false
	}
	return now - e.at, true
}

// Len returns the number of cached entries (fresh or stale).
func (c *CSICache) Len() int { return len(c.entries) }
