package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// histogramJSON is the serialized form of LatencyHistogram.
type histogramJSON struct {
	Counts []uint64      `json:"counts"`
	Total  uint64        `json:"total"`
	Max    time.Duration `json:"max"`
}

// MarshalJSON serializes the histogram's buckets, sample count, and max.
func (h *LatencyHistogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Counts: h.counts[:], Total: h.total, Max: h.maxValue})
}

// UnmarshalJSON restores a histogram serialized by MarshalJSON. Journal
// payloads are read from disk, so a histogram whose bucket count is not
// the build's or whose total is not the sum of its counts is an error,
// not a skewed Percentile.
func (h *LatencyHistogram) UnmarshalJSON(b []byte) error {
	var hj histogramJSON
	if err := json.Unmarshal(b, &hj); err != nil {
		return err
	}
	if len(hj.Counts) != len(h.counts) {
		return fmt.Errorf("latency histogram: %d bucket counts, want %d", len(hj.Counts), len(h.counts))
	}
	var sum uint64
	for _, c := range hj.Counts {
		if sum+c < sum {
			return errors.New("latency histogram: bucket counts overflow")
		}
		sum += c
	}
	if sum != hj.Total {
		return fmt.Errorf("latency histogram: total %d, bucket counts sum to %d", hj.Total, sum)
	}
	*h = LatencyHistogram{total: hj.Total, maxValue: hj.Max}
	copy(h.counts[:], hj.Counts)
	return nil
}
