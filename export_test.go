package smoqe

// MaxIndexPools exports the bound on a plan's OptHyPE engine pools.
const MaxIndexPools = maxIndexPools

// IndexPoolCount reports how many OptHyPE engine pools p holds.
func IndexPoolCount(p *PreparedQuery) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.opt)
}
