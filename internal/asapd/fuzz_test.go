package asapd

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/asapd/queue"
)

// FuzzJobSpec feeds arbitrary bodies to POST /v1/jobs: decoding, validation,
// trace loading and admission must answer 202, 400, 429 or 503, never panic
// or allocate without limit. The service under test has no job workers, so
// an accepted job stays queued and nothing a mutated spec asks for is ever
// simulated; draining covers the 503 path.
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		`{"cells": [{"workload": "mcf"}, {"workload": "mcf", "colocated": true}], "params": {"fast": true}, "repeats": 2}`,
		`{"cells": [{"trace": "` + capturePath + `"}], "params": {"warmup_walks": 300, "measure_walks": 200}}`,
		`{"cells": [{"trace": "` + capturePath + `", "workload": "canneal", "asap": "p1+p2", "colocated": true}]}`,
		`{"cells": [{"trace": "` + capturePath + `", "workload": "mcf"}]}`,
		`{"cells": [{"trace": "../exp/testdata/missing.trc.gz"}]}`,
		`{"cells": [{"workload": "canneal", "virtualized": true, "guest": "p1", "host": "p1+p2", "host_huge_pages": true}]}`,
		`{"cells": [{"workload": "redis", "scheme": "victima"}], "params": {"hole_prob": 0.5, "seed": 7}, "timeout_ms": 100}`,
		`{"cells": [{"workload": "mcf"}], "repeats": 100000}`,
		`{"cells": []}`,
		`{]`,
	} {
		f.Add([]byte(body), false)
	}
	f.Add([]byte(`{"cells": [{"workload": "mcf"}]}`), true)
	f.Fuzz(func(t *testing.T, body []byte, draining bool) {
		s := &Service{clock: sysClock{}, q: queue.New[*Job](1), jobs: map[string]*Job{}, draining: draining}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
	})
}
