package transport

import (
	"testing"
	"time"

	"pgxsort/internal/dist"
)

// TestJitterBounds pins the backoff spread the TCP redialer and the
// scheduler's retry backoff share: [3d/4, 5d/4) for any random word.
func TestJitterBounds(t *testing.T) {
	rng := dist.NewRNG(7)
	for _, d := range []time.Duration{2, 3, 7, time.Millisecond, 50 * time.Millisecond, 2 * time.Second} {
		for i := 0; i < 1000; i++ {
			rnd := rng.Uint64()
			if i == 0 {
				rnd = 0
			}
			// Scaled by 4 so the bounds stay exact for d not divisible by 4.
			if got := Jitter(d, rnd); 4*got < 3*d || 4*got >= 5*d {
				t.Fatalf("Jitter(%v, %#x) = %v, want in [3d/4, 5d/4)", d, rnd, got)
			}
		}
	}
	for _, d := range []time.Duration{0, -time.Second} {
		if got := Jitter(d, 12345); got != 0 {
			t.Errorf("Jitter(%v) = %v, want 0", d, got)
		}
	}
	if got := Jitter(1, 12345); got != 1 {
		t.Errorf("Jitter(1ns) = %v, want 1ns", got)
	}
}
