package regression

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/rng"
)

// fitReference builds a realistic model exercising every term kind.
func fitReference(t *testing.T) (*Model, *Dataset) {
	t.Helper()
	r := rng.New(31)
	n := 120
	d := NewDataset(n)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x1[i] = r.Float64() * 10
		x2[i] = float64(r.Intn(3)) // few levels: spline degrades
		y[i] = math.Pow(1+0.5*x1[i]+0.2*x2[i]+0.05*x1[i]*x2[i], 2) * (1 + 0.01*r.NormFloat64())
	}
	d.AddColumn("x1", x1)
	d.AddColumn("x2", x2)
	d.AddColumn("y", y)
	m, err := Fit(NewSpec("y", Sqrt).Spline("x1", 4).Spline("x2", 3).Interact("x1", "x2"), d)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

func TestModelJSONRoundTrip(t *testing.T) {
	m, _ := fitReference(t)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var restored Model
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	// Predictions must be bit-identical across a grid of inputs.
	for x1 := 0.0; x1 <= 10; x1 += 0.7 {
		for x2 := 0.0; x2 <= 2; x2++ {
			vals := map[string]float64{"x1": x1, "x2": x2}
			if got, want := restored.Predict(byName(vals)), m.Predict(byName(vals)); got != want {
				t.Fatalf("prediction differs after round trip at (%v,%v): %v vs %v", x1, x2, got, want)
			}
		}
	}
	// Diagnostics survive.
	if restored.r2 != m.r2 || restored.rse != m.rse || restored.adjR2 != m.adjR2 {
		t.Fatal("diagnostics lost in round trip")
	}
	if restored.Response() != "y" {
		t.Fatal("response lost")
	}
}

func TestModelJSONRejectsCorrupt(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"response":"y","coefficients":[1,2],"columns":["a"]}`, // mismatched widths
		`{"response":"y","coefficients":[1],"columns":["(intercept)"],
		  "terms":[{"kind":99,"var":"x","names":["x"]}]}`, // unknown kind
		`{"response":"y","coefficients":[1,2],"columns":["(intercept)","x"],
		  "terms":[{"kind":1,"var":"x","knots":[3,2,1],"names":["x","x'1"]}]}`, // bad knots
		`{"response":"y","coefficients":[1,2,3],"columns":["(intercept)","x","z"],
		  "terms":[{"kind":0,"var":"x","names":["x"]}]}`, // width mismatch
	}
	for i, c := range cases {
		var m Model
		if err := json.Unmarshal([]byte(c), &m); err == nil {
			t.Fatalf("case %d: corrupt model accepted", i)
		}
	}
}

func TestModelJSONSplineKnotsPreserved(t *testing.T) {
	m, _ := fitReference(t)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	terms, ok := decoded["terms"].([]interface{})
	if !ok || len(terms) == 0 {
		t.Fatal("no terms serialized")
	}
	first := terms[0].(map[string]interface{})
	knots, ok := first["knots"].([]interface{})
	if !ok || len(knots) != 4 {
		t.Fatalf("spline knots not serialized: %v", first)
	}
}

func TestModelJSONSummaryAfterReload(t *testing.T) {
	m, _ := fitReference(t)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var restored Model
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	// Significance requires the training design matrix, so a restored
	// model renders estimates only — but the headline diagnostics and
	// coefficient values must match.
	if restored.r2 != m.r2 || len(restored.beta) != len(m.beta) {
		t.Fatal("diagnostics differ after reload")
	}
	if _, err := restored.Significance(); err == nil {
		t.Fatal("restored model offered significance table")
	}
}
