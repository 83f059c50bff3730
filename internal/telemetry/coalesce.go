package telemetry

// coalesceScan is how many of its run's distinct sightings Coalesce
// compares a record with, newest first. A generated user-day holds 2.2
// distinct sightings on average, so 16 finds nearly every repeat in a
// block: the 30k-user week at seed 1 keeps 421,793 of its 1,146,081
// records in 1,024-record blocks, against 420,734 distinct sightings.
// A user-day with hundreds of addresses still costs a bounded number of
// comparisons per record instead of one per sighting. A repeat past the
// bound stays a record of its own, which costs analysis time and never
// an answer.
const coalesceScan = 16

// Coalesce merges the records of recs that repeat a sighting, in place,
// and returns the shortened slice, as slices.Compact does. A run is a
// maximal stretch of consecutive records of one (user, day). Within a
// run, a record's sighting is its address (family included), ASN,
// country and abusive label. A record whose sighting equals that of one
// of the coalesceScan newest records its run has kept so far is merged
// into the newest such record, which gains its requests, unless the sum
// would overflow uint32; every other record is kept. The kept records
// stay in first-seen order. Coalesce overwrites recs, and the elements
// past the returned length are left over from the input.
//
// Analysis feeds the result in place of the block: no registration's
// state depends on how a sighting's requests are split across records
// (core.AddCommutativeAnalyzer), so the answers are the same.
func Coalesce(recs []Observation) []Observation {
	n, run := 0, 0 // recs[:n] is kept, and recs[run:n] is the current run
	for i := range recs {
		o := &recs[i]
		if run < n && (o.UserID != recs[run].UserID || o.Day != recs[run].Day) {
			run = n
		}
		if !mergeSighting(recs[max(run, n-coalesceScan):n], o) {
			recs[n] = *o
			n++
		}
	}
	return recs[:n]
}

// mergeSighting adds o's requests to the newest record of kept that has
// o's sighting, and reports whether it did. It does not when kept holds
// no such record or when the sum would overflow.
func mergeSighting(kept []Observation, o *Observation) bool {
	for j := len(kept) - 1; j >= 0; j-- {
		k := &kept[j]
		if k.Addr != o.Addr || k.ASN != o.ASN || k.Country != o.Country || k.Abusive != o.Abusive {
			continue
		}
		sum := k.Requests + o.Requests
		if sum < k.Requests {
			return false
		}
		k.Requests = sum
		return true
	}
	return false
}
