package transport

import "time"

// Jitter spreads one backoff interval: the result lies in [3d/4, 5d/4),
// drawn from rnd — any random word; callers pass a clock sample or an
// RNG draw. Precision does not matter, de-synchronization does: the TCP
// redialer and the scheduler's retry backoff share this helper so every
// backoff in the stack desynchronizes restarting peers the same way.
func Jitter(d time.Duration, rnd uint64) time.Duration {
	if d <= 0 {
		return 0
	}
	sleep := d - d/4
	if half := d / 2; half > 0 {
		sleep += time.Duration(rnd % uint64(half))
	}
	return sleep
}
