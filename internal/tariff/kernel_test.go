package tariff

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/calendar"
	"repro/internal/timeseries"
	"repro/internal/units"
)

// TestTOUScannerMatchesPriceAt checks the TOU cost scanner, which
// advances once per price run, against costByPriceAt, the plain loop
// that prices every sample from its own instant. The year is in Europe/Zurich, so runs
// meet both 2016 DST transitions, and in Australia/Lord_Howe, whose
// half-hour DST shifts put a transition inside an hour. Intervals are
// 15, 7 and 90 minutes, starts are offset below the hour, and the scan
// is cut into chunks that do not align with hours. The holiday calendar
// puts day-kind changes on weekdays. One schedule gives a few long runs
// per day; the other gives runs of one to three hours, some of which
// span 02:00, and a long Sunday run that starts in the hour of the
// Lord Howe spring-forward.
func TestTOUScannerMatchesPriceAt(t *testing.T) {
	// Holiday keys are calendar dates, whatever the load's zone.
	holidays := calendar.NewHolidayCalendar(
		time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, time.March, 25, 0, 0, 0, 0, time.UTC), // Good Friday, two days before Zurich's spring-forward
		time.Date(2016, time.March, 28, 0, 0, 0, 0, time.UTC), // Easter Monday, the day after
		time.Date(2016, time.August, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2016, time.October, 31, 0, 0, 0, 0, time.UTC), // the day after Zurich's fall-back
		time.Date(2016, time.December, 26, 0, 0, 0, 0, time.UTC),
	)
	seasonal := MustNewTOU(calendar.SeasonalDayNight(7, 21, holidays), map[string]units.EnergyPrice{
		"summer-peak": 0.041, "peak": 0.021, "offpeak": 0.006,
	})
	banded := MustNewTOU(calendar.MustNewSchedule("base", holidays,
		calendar.ScheduleEntry{Rule: calendar.Rule{Hours: calendar.HourBand{From: 1, To: 3}}, Label: "early"},
		calendar.ScheduleEntry{Rule: calendar.Rule{DayKind: calendar.Weekday, Hours: calendar.HourBand{From: 3, To: 4}}, Label: "dawn"},
		calendar.ScheduleEntry{Rule: calendar.Rule{Hours: calendar.HourBand{From: 17, To: 19}}, Label: "evening"},
	), map[string]units.EnergyPrice{
		"early": 0.011, "dawn": 0.017, "evening": 0.033, "base": 0.011, // "early" and "base" share a price
	})

	for _, zone := range []string{"Europe/Zurich", "Australia/Lord_Howe"} {
		loc, err := time.LoadLocation(zone)
		if err != nil {
			t.Skipf("tzdata unavailable: %v", err)
		}
		year := time.Date(2016, time.January, 1, 0, 0, 0, 0, loc)
		for name, tou := range map[string]*TOUTariff{"seasonal": seasonal, "banded": banded} {
			for _, interval := range []time.Duration{15 * time.Minute, 7 * time.Minute, 90 * time.Minute} {
				for _, offset := range []time.Duration{0, 7 * time.Minute, 23*time.Minute + 13*time.Second} {
					t.Run(fmt.Sprintf("%s/%s/%v/+%v", zone, name, interval, offset), func(t *testing.T) {
						start := year.Add(offset)
						n := int(year.AddDate(1, 0, 0).Sub(start) / interval)
						samples := make([]units.Power, n)
						for i := range samples {
							samples[i] = units.Power(9000 + 3000*math.Sin(float64(i)/11) + float64(i%13))
						}

						k, _ := compileCostKernel(tou)
						sc := k.newScanner()
						sc.begin(start, interval, n)
						const chunk = 997
						for base := 0; base < n; base += chunk {
							sc.scan(samples[base:min(base+chunk, n)], base)
						}

						want := costByPriceAt(tou, timeseries.MustNewPower(start, interval, samples))
						if got := sc.amount(); got != want {
							t.Errorf("scanner amount %v, priceAt amount %v (off by %d micro-units)", got, want, int64(got-want))
						}
					})
				}
			}
		}
	}
}

// midHourGapZone is a zone that springs forward from +01:00 to +01:30
// at 02:15 local on Sunday 2016-05-08, so the wall clock skips
// [02:15, 02:45). No current tz database zone has a gap that starts
// inside an hour (historic local-mean-time changes do), so the test
// builds one from minimal TZif data.
func midHourGapZone(t *testing.T) *time.Location {
	t.Helper()
	be32 := func(b []byte, v int32) []byte {
		return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	shift := time.Date(2016, time.May, 8, 1, 15, 0, 0, time.UTC).Unix()
	data := append([]byte("TZif"), make([]byte, 16)...) // version 1, reserved
	for _, n := range []int32{0, 0, 0, 1, 2, 8} {       // ut/local, std/wall, leap, transitions, types, abbreviation bytes
		data = be32(data, n)
	}
	data = be32(data, int32(shift))
	data = append(data, 1)                // the transition enters type 1
	data = append(be32(data, 3600), 0, 0) // type 0: +01:00, abbreviation "AAA"
	data = append(be32(data, 5400), 1, 4) // type 1: +01:30 daylight, abbreviation "BBB"
	data = append(data, "AAA\x00BBB\x00"...)
	loc, err := time.LoadLocationFromTZData("MidHourGap", data)
	if err != nil {
		t.Fatal(err)
	}
	return loc
}

// TestTOUScannerMidHourGap: after a gap that opens inside hour 2, the
// top of hour 2 still exists in the old zone and reads 02:00, but the
// wall clock after the gap runs 30 minutes ahead of it. Two 30-minute
// sample grids meet the gap from either side: at 20 past, the scanner
// first advances in hour 2 at 02:50, after the gap; at 10 past, it
// advances at 02:10, just before it, and the next sample reads 03:10.
// A step measured from the top of the hour would price 03:20 (or 03:10)
// at the hour-2 price; the "split" schedule prices hours 1, 2 and 3
// differently so that shows, and the "run" schedule gives hour 3 a long
// run that must not be taken from that top either.
func TestTOUScannerMidHourGap(t *testing.T) {
	loc := midHourGapZone(t)
	if _, off := time.Date(2016, time.May, 8, 3, 0, 0, 0, loc).Zone(); off != 5400 {
		t.Fatalf("zone offset after the gap = %d s, want 5400", off)
	}
	schedules := map[string]*TOUTariff{
		"run": MustNewTOU(calendar.MustNewSchedule("base", nil,
			calendar.ScheduleEntry{Rule: calendar.Rule{Hours: calendar.HourBand{From: 1, To: 2}}, Label: "one"},
			calendar.ScheduleEntry{Rule: calendar.Rule{Hours: calendar.HourBand{From: 17, To: 19}}, Label: "evening"},
		), map[string]units.EnergyPrice{"one": 0.007, "evening": 0.033, "base": 0.011}),
		"split": MustNewTOU(calendar.MustNewSchedule("base", nil,
			calendar.ScheduleEntry{Rule: calendar.Rule{Hours: calendar.HourBand{From: 1, To: 2}}, Label: "one"},
			calendar.ScheduleEntry{Rule: calendar.Rule{Hours: calendar.HourBand{From: 2, To: 3}}, Label: "two"},
		), map[string]units.EnergyPrice{"one": 0.007, "two": 0.019, "base": 0.011}),
	}
	const interval = 30 * time.Minute
	n := 3 * 24 * 2
	for name, tou := range schedules {
		for _, past := range []time.Duration{20 * time.Minute, 10 * time.Minute} {
			t.Run(fmt.Sprintf("%s/+%v", name, past), func(t *testing.T) {
				start := time.Date(2016, time.May, 7, 0, 0, 0, 0, loc).Add(past)
				samples := make([]units.Power, n)
				for i := range samples {
					samples[i] = units.Power(1000 + i)
				}
				k, _ := compileCostKernel(tou)
				sc := k.newScanner()
				sc.begin(start, interval, n)
				sc.scan(samples, 0)
				want := costByPriceAt(tou, timeseries.MustNewPower(start, interval, samples))
				if got := sc.amount(); got != want {
					t.Errorf("scanner amount %v, priceAt amount %v (off by %d micro-units)", got, want, int64(got-want))
				}
			})
		}
	}
}
