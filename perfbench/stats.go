package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a single outlier cannot set it.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (q in (0,1)) and
// reports whether at least minBeyond samples lie strictly beyond its rank.
// samples is sorted in place.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1], n-rank >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is sorted in place. It returns 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// exercised).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// okFrac is the success share of a run: operations that neither failed nor
// were refused (429/503, each refusal counting as one more attempt), over
// all attempts.
func okFrac(attempted, failed, refused int) float64 {
	return 1 - float64(failed+refused)/float64(attempted+refused)
}

// metricName is the grammar of metric and workload names.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// encodeResult renders the result line, rejecting malformed metric names and
// values JSON cannot carry.
func encodeResult(correct bool, attempted, failed int, ms []metric) ([]byte, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		if !metricName.MatchString(m.Name) {
			return nil, fmt.Errorf("metric name %q breaks the grammar %s", m.Name, metricName)
		}
		if _, dup := r.Metrics[m.Name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		r.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	return json.Marshal(r)
}

// digest accumulates a SHA-256 over named simulated results, in the order
// they are added, so two commits can compare their outputs exactly.
type digest struct{ h []byte }

func (d *digest) add(name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("digest %s: %w", name, err)
	}
	d.h = append(d.h, name...)
	d.h = append(d.h, 0)
	d.h = append(d.h, b...)
	d.h = append(d.h, '\n')
	return nil
}

func (d *digest) String() string {
	sum := sha256.Sum256(d.h)
	return hex.EncodeToString(sum[:8])
}

// peakRSSMB returns the process's peak resident set size in MiB (VmHWM),
// falling back to the Go runtime's total obtained memory where /proc is
// unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
