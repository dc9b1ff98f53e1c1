package medium

// Stats returns a snapshot of the impairments a Faulty medium injected
// so far (test accessor).
func (f *Faulty) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
