package metrics

import (
	"encoding/json"
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

// UnmarshalJSON restores a histogram serialized by MarshalJSON.
func (h *LatencyHistogram) UnmarshalJSON(b []byte) error {
	var hj histogramJSON
	if err := json.Unmarshal(b, &hj); err != nil {
		return err
	}
	*h = LatencyHistogram{total: hj.Total, maxValue: hj.Max}
	copy(h.counts[:], hj.Counts)
	return nil
}
