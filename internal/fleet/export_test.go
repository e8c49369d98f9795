package fleet

import "context"

// StartBuffered is Start with a merged channel of n reports, so tests
// can fill it quickly.
func StartBuffered(ctx context.Context, cfg Config, n int) (*Fleet, error) {
	return start(ctx, cfg, n)
}
