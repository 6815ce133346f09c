package server

import "testing"

// TestClampWorkers pins the rule for a config's "workers" field: values in
// 1..limit are honoured, anything else (unset, negative, or more than the
// server allows) becomes the server's limit. Only the planned count is
// checked; no test starts the goroutines.
func TestClampWorkers(t *testing.T) {
	for _, c := range []struct{ requested, limit, want int }{
		{0, 4, 4},
		{-1, 4, 4},
		{1, 4, 1},
		{3, 4, 3},
		{4, 4, 4},
		{5, 4, 4},
		{1 << 30, 4, 4},
		{1 << 30, 1, 1},
		{2, 1, 1},
	} {
		if got := clampWorkers(c.requested, c.limit); got != c.want {
			t.Errorf("clampWorkers(%d, %d) = %d, want %d", c.requested, c.limit, got, c.want)
		}
	}
}
