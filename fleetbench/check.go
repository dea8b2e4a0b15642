package main

// Output checks. A response is correct when it matches a reference the
// benchmark verified: either bytes computed in set-up through the
// public API (single-period bills), or the first response to the same
// body, accepted only after it passed a semantic check against the
// set-up oracle (monthly and batch grand totals, optimize savings).
// Later responses to the same body must repeat it byte for byte.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

type checker struct {
	mu     sync.Mutex
	ref    [][]byte
	verify func(i int, resp []byte) error
}

func newChecker(n int, verify func(i int, resp []byte) error) *checker {
	return &checker{ref: make([][]byte, n), verify: verify}
}

// check reports whether resp is a correct answer to request i.
func (c *checker) check(i int, resp []byte) error {
	c.mu.Lock()
	ref := c.ref[i]
	c.mu.Unlock()
	if ref != nil {
		if !bytes.Equal(resp, ref) {
			return fmt.Errorf("request %d: response differs from the verified reference", i)
		}
		return nil
	}
	if c.verify == nil {
		return fmt.Errorf("request %d: no reference response", i)
	}
	if err := c.verify(i, resp); err != nil {
		return fmt.Errorf("request %d: %w", i, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ref[i] == nil {
		c.ref[i] = bytes.Clone(resp)
		return nil
	}
	if !bytes.Equal(resp, c.ref[i]) {
		return fmt.Errorf("request %d: response differs from the verified reference", i)
	}
	return nil
}

// monthlyJSON is the part of a monthly bill response the check reads.
type monthlyJSON struct {
	Contract   string            `json:"contract"`
	Months     []json.RawMessage `json:"months"`
	GrandTotal float64           `json:"grand_total"`
}

// checkMonthly verifies a twelve-month response against the grand total
// the set-up engine computed.
func checkMonthly(resp []byte, want float64) error {
	var m monthlyJSON
	if err := json.Unmarshal(resp, &m); err != nil {
		return fmt.Errorf("monthly response: %w", err)
	}
	if len(m.Months) != 12 {
		return fmt.Errorf("monthly response has %d months, want 12", len(m.Months))
	}
	if m.GrandTotal != want {
		return fmt.Errorf("grand_total %v, want %v", m.GrandTotal, want)
	}
	return nil
}

// checkBatch verifies every item of a batch response: status 200, the
// contract named at that position, and that contract's grand total.
func checkBatch(resp []byte, order []int, want map[string]float64) error {
	var env struct {
		Count int `json:"count"`
		Items []struct {
			Status int             `json:"status"`
			Body   json.RawMessage `json:"body"`
		} `json:"items"`
	}
	if err := json.Unmarshal(resp, &env); err != nil {
		return fmt.Errorf("batch response: %w", err)
	}
	if env.Count != len(order) || len(env.Items) != len(order) {
		return fmt.Errorf("batch response has %d items (count %d), want %d", len(env.Items), env.Count, len(order))
	}
	for k, it := range env.Items {
		if it.Status != 200 {
			return fmt.Errorf("batch item %d: status %d", k, it.Status)
		}
		var m monthlyJSON
		if err := json.Unmarshal(it.Body, &m); err != nil {
			return fmt.Errorf("batch item %d: %w", k, err)
		}
		name := fmt.Sprintf("batch-%02d", order[k])
		if m.Contract != name {
			return fmt.Errorf("batch item %d: contract %q, want %q", k, m.Contract, name)
		}
		if len(m.Months) != 12 || m.GrandTotal != want[name] {
			return fmt.Errorf("batch item %d: %d months, grand_total %v, want 12 and %v",
				k, len(m.Months), m.GrandTotal, want[name])
		}
	}
	return nil
}

// checkOptimize verifies an optimize response found a cheaper schedule
// and returns how many candidates its search priced.
func checkOptimize(resp []byte) (evaluated int, err error) {
	var r struct {
		Savings float64 `json:"savings"`
		Stats   struct {
			Evaluated int `json:"evaluated"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		return 0, fmt.Errorf("optimize response: %w", err)
	}
	if r.Savings <= 0 {
		return 0, fmt.Errorf("optimize savings %v, want > 0", r.Savings)
	}
	if r.Stats.Evaluated <= 0 {
		return 0, errors.New("optimize response priced no candidates")
	}
	return r.Stats.Evaluated, nil
}
