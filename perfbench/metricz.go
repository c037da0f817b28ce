package main

// /metricz scrapes: spannerd's JSON registry dump, taken before and after
// a run and subtracted, so counters and histograms cover the run alone.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"spanner/internal/obs"
)

// series is one /metricz entry.
type series struct {
	Kind   string            `json:"kind"`
	Series string            `json:"series"`
	Value  float64           `json:"value"`
	Count  int64             `json:"count"`
	Hist   *obs.HistSnapshot `json:"hist"`
}

// scrape is one /metricz dump keyed by series ("name{k=v}").
type scrape map[string]series

func scrapeMetricz(baseURL string) (scrape, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get(baseURL + "/metricz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metricz: HTTP %d", resp.StatusCode)
	}
	var all []series
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		return nil, fmt.Errorf("metricz: %w", err)
	}
	out := make(scrape, len(all))
	for _, s := range all {
		out[s.Series] = s
	}
	return out, nil
}

// delta is after − before for one run.
type delta struct{ before, after scrape }

// counter returns the increase of a counter series.
func (d delta) counter(key string) float64 { return d.after[key].Value - d.before[key].Value }

// counterSum sums the increase of every series of a counter name, any
// labels.
func (d delta) counterSum(name string) float64 {
	total := 0.0
	for k, s := range d.after {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += s.Value - d.before[k].Value
		}
	}
	return total
}

// hist returns the samples a histogram series recorded during the run.
func (d delta) hist(key string) *obs.HistSnapshot {
	after := d.after[key].Hist
	if after == nil {
		return &obs.HistSnapshot{}
	}
	return after.Sub(d.before[key].Hist)
}
