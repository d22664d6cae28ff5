// Package tpch is a deterministic, scaled-down TPC-H-like workload
// generator plus plan definitions for analogs of all 22 TPC-H queries over
// the vdb engines. The paper's worked examples run TPC-H (sf=1) on a
// laptop; we substitute this generator (same schema shape, same query
// classes, scale factor parameterizing volume identically) so the timing
// experiments run in milliseconds and are bit-stable.
//
// Row counts per unit scale factor are 1/100 of real TPC-H, which keeps
// go test fast while preserving every table-size ratio.
package tpch

import (
	"fmt"

	"repro/internal/vdb"
)

// Rows per sf=1.0 (real TPC-H divided by 100, ratios preserved).
const (
	supplierPerSF = 100
	partPerSF     = 2000
	customerPerSF = 1500
	ordersPerSF   = 15000
	partSuppPer   = 4 // partsupp rows per part
	maxLinesPer   = 7 // lineitem rows per order: 1..7, avg 4
)

// rng is a splitmix64 PRNG: tiny, fast, and identical everywhere.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// Date encodes y-m-d as days since 1992-01-01 using a fixed 30-day-month,
// 365-day-year calendar (generator and queries share it, so only ordering
// and ranges matter).
func Date(y, m, d int) int64 {
	return int64((y-1992)*365 + (m-1)*30 + (d - 1))
}

// Value pools mirroring TPC-H's domains.
var (
	regionNames   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames   = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	nationRegion  = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}
	segments      = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities    = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers    = []string{"SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "JUMBO PACK", "WRAP CASE"}
	typeSyllable1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyllable2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyllable3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	colors        = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blue", "blush", "brown", "burnished", "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew", "hot", "hotpink", "indian", "ivory", "khaki", "lace", "lavender"}
)

// Gen generates the full eight-table catalog at the given scale factor and
// seed. Scale factors below ~0.01 are clamped so every table has at least a
// handful of rows.
func Gen(sf float64, seed uint64) (*vdb.DB, error) {
	if sf <= 0 {
		return nil, fmt.Errorf("tpch: scale factor must be positive, got %g", sf)
	}
	r := &rng{state: seed}
	db := vdb.NewDB()

	atLeast := func(n int) int {
		if n < 3 {
			return 3
		}
		return n
	}
	nSupp := atLeast(int(float64(supplierPerSF) * sf))
	nPart := atLeast(int(float64(partPerSF) * sf))
	nCust := atLeast(int(float64(customerPerSF) * sf))
	nOrd := atLeast(int(float64(ordersPerSF) * sf))

	for _, build := range []func() (*vdb.Table, error){
		func() (*vdb.Table, error) { return genRegion() },
		func() (*vdb.Table, error) { return genNation() },
		func() (*vdb.Table, error) { return genSupplier(r, nSupp) },
		func() (*vdb.Table, error) { return genCustomer(r, nCust) },
		func() (*vdb.Table, error) { return genPart(r, nPart) },
		func() (*vdb.Table, error) { return genPartSupp(r, nPart, nSupp) },
	} {
		t, err := build()
		if err != nil {
			return nil, err
		}
		if err := db.AddTable(t); err != nil {
			return nil, err
		}
	}
	orders, lineitem, err := genOrdersAndLineitem(r, nOrd, nCust, nPart, nSupp)
	if err != nil {
		return nil, err
	}
	if err := db.AddTable(orders); err != nil {
		return nil, err
	}
	if err := db.AddTable(lineitem); err != nil {
		return nil, err
	}
	return db, nil
}

func genRegion() (*vdb.Table, error) {
	keys := make([]int64, len(regionNames))
	for i := range keys {
		keys[i] = int64(i)
	}
	return vdb.NewTable("region",
		vdb.NewIntColumn("r_regionkey", keys),
		vdb.NewStringColumn("r_name", append([]string(nil), regionNames...)),
	)
}

func genNation() (*vdb.Table, error) {
	n := len(nationNames)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	return vdb.NewTable("nation",
		vdb.NewIntColumn("n_nationkey", keys),
		vdb.NewStringColumn("n_name", append([]string(nil), nationNames...)),
		vdb.NewIntColumn("n_regionkey", append([]int64(nil), nationRegion...)),
	)
}

func genSupplier(r *rng, n int) (*vdb.Table, error) {
	key := make([]int64, n)
	name := make([]string, n)
	nation := make([]int64, n)
	acctbal := make([]float64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i + 1)
		name[i] = fmt.Sprintf("Supplier#%09d", i+1)
		nation[i] = int64(r.intn(len(nationNames)))
		acctbal[i] = -999.99 + r.float()*(9999.99+999.99)
	}
	return vdb.NewTable("supplier",
		vdb.NewIntColumn("s_suppkey", key),
		vdb.NewStringColumn("s_name", name),
		vdb.NewIntColumn("s_nationkey", nation),
		vdb.NewFloatColumn("s_acctbal", acctbal),
	)
}

func genCustomer(r *rng, n int) (*vdb.Table, error) {
	key := make([]int64, n)
	name := make([]string, n)
	nation := make([]int64, n)
	acctbal := make([]float64, n)
	seg := make([]string, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i + 1)
		name[i] = fmt.Sprintf("Customer#%09d", i+1)
		nation[i] = int64(r.intn(len(nationNames)))
		acctbal[i] = -999.99 + r.float()*(9999.99+999.99)
		seg[i] = segments[r.intn(len(segments))]
	}
	return vdb.NewTable("customer",
		vdb.NewIntColumn("c_custkey", key),
		vdb.NewStringColumn("c_name", name),
		vdb.NewIntColumn("c_nationkey", nation),
		vdb.NewFloatColumn("c_acctbal", acctbal),
		vdb.NewStringColumn("c_mktsegment", seg),
	)
}

func genPart(r *rng, n int) (*vdb.Table, error) {
	key := make([]int64, n)
	name := make([]string, n)
	mfgr := make([]string, n)
	brand := make([]string, n)
	ptype := make([]string, n)
	size := make([]int64, n)
	container := make([]string, n)
	price := make([]float64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i + 1)
		c1, c2 := colors[r.intn(len(colors))], colors[r.intn(len(colors))]
		name[i] = c1 + " " + c2
		m := 1 + r.intn(5)
		b := 1 + r.intn(5)
		mfgr[i] = fmt.Sprintf("Manufacturer#%d", m)
		brand[i] = fmt.Sprintf("Brand#%d%d", m, b)
		ptype[i] = typeSyllable1[r.intn(len(typeSyllable1))] + " " +
			typeSyllable2[r.intn(len(typeSyllable2))] + " " +
			typeSyllable3[r.intn(len(typeSyllable3))]
		size[i] = int64(1 + r.intn(50))
		container[i] = containers[r.intn(len(containers))]
		price[i] = 900 + float64((i+1)%201)/10*100
	}
	return vdb.NewTable("part",
		vdb.NewIntColumn("p_partkey", key),
		vdb.NewStringColumn("p_name", name),
		vdb.NewStringColumn("p_mfgr", mfgr),
		vdb.NewStringColumn("p_brand", brand),
		vdb.NewStringColumn("p_type", ptype),
		vdb.NewIntColumn("p_size", size),
		vdb.NewStringColumn("p_container", container),
		vdb.NewFloatColumn("p_retailprice", price),
	)
}

func genPartSupp(r *rng, nPart, nSupp int) (*vdb.Table, error) {
	n := nPart * partSuppPer
	pk := make([]int64, 0, n)
	sk := make([]int64, 0, n)
	cost := make([]float64, 0, n)
	avail := make([]int64, 0, n)
	for p := 1; p <= nPart; p++ {
		for j := 0; j < partSuppPer; j++ {
			pk = append(pk, int64(p))
			// TPC-H's supplier spreading formula keeps pairs distinct.
			sk = append(sk, int64((p+j*(nSupp/4+p%(nSupp/4+1)))%nSupp+1))
			cost = append(cost, 1+r.float()*999)
			avail = append(avail, int64(1+r.intn(9999)))
		}
	}
	return vdb.NewTable("partsupp",
		vdb.NewIntColumn("ps_partkey", pk),
		vdb.NewIntColumn("ps_suppkey", sk),
		vdb.NewFloatColumn("ps_supplycost", cost),
		vdb.NewIntColumn("ps_availqty", avail),
	)
}

func genOrdersAndLineitem(r *rng, nOrd, nCust, nPart, nSupp int) (orders, lineitem *vdb.Table, err error) {
	oKey := make([]int64, nOrd)
	oCust := make([]int64, nOrd)
	oStatus := make([]string, nOrd)
	oTotal := make([]float64, nOrd)
	oDate := make([]int64, nOrd)
	oPrio := make([]string, nOrd)

	var lOrder, lPart, lSupp, lNum, lQty []int64
	var lPrice, lDisc, lTax []float64
	var lRet, lStatus []string
	var lShip, lCommit, lReceipt []int64
	var lMode, lInstruct []string

	endDate := Date(1998, 8, 2)
	for i := 0; i < nOrd; i++ {
		oKey[i] = int64(i + 1)
		oCust[i] = int64(1 + r.intn(nCust))
		oDate[i] = int64(r.intn(int(Date(1998, 5, 1))))
		oPrio[i] = priorities[r.intn(len(priorities))]

		nLines := 1 + r.intn(maxLinesPer)
		var total float64
		allFinished := true
		for ln := 1; ln <= nLines; ln++ {
			ship := oDate[i] + int64(1+r.intn(120))
			commit := oDate[i] + int64(30+r.intn(60))
			receipt := ship + int64(1+r.intn(30))
			if receipt > endDate {
				receipt = endDate
			}
			qty := int64(1 + r.intn(50))
			price := 900 + r.float()*100000
			disc := float64(r.intn(11)) / 100
			tax := float64(r.intn(9)) / 100

			var ret string
			if receipt <= Date(1995, 6, 17) {
				if r.intn(2) == 0 {
					ret = "R"
				} else {
					ret = "A"
				}
			} else {
				ret = "N"
			}
			status := "F"
			if ship > Date(1995, 6, 17) {
				status = "O"
				allFinished = false
			}

			lOrder = append(lOrder, oKey[i])
			lPart = append(lPart, int64(1+r.intn(nPart)))
			lSupp = append(lSupp, int64(1+r.intn(nSupp)))
			lNum = append(lNum, int64(ln))
			lQty = append(lQty, qty)
			lPrice = append(lPrice, price)
			lDisc = append(lDisc, disc)
			lTax = append(lTax, tax)
			lRet = append(lRet, ret)
			lStatus = append(lStatus, status)
			lShip = append(lShip, ship)
			lCommit = append(lCommit, commit)
			lReceipt = append(lReceipt, receipt)
			lMode = append(lMode, shipModes[r.intn(len(shipModes))])
			lInstruct = append(lInstruct, shipInstructs[r.intn(len(shipInstructs))])
			total += price * float64(qty)
		}
		oTotal[i] = total
		if allFinished {
			oStatus[i] = "F"
		} else {
			oStatus[i] = "O"
		}
	}

	orders, err = vdb.NewTable("orders",
		vdb.NewIntColumn("o_orderkey", oKey),
		vdb.NewIntColumn("o_custkey", oCust),
		vdb.NewStringColumn("o_orderstatus", oStatus),
		vdb.NewFloatColumn("o_totalprice", oTotal),
		vdb.NewIntColumn("o_orderdate", oDate),
		vdb.NewStringColumn("o_orderpriority", oPrio),
	)
	if err != nil {
		return nil, nil, err
	}
	lineitem, err = vdb.NewTable("lineitem",
		vdb.NewIntColumn("l_orderkey", lOrder),
		vdb.NewIntColumn("l_partkey", lPart),
		vdb.NewIntColumn("l_suppkey", lSupp),
		vdb.NewIntColumn("l_linenumber", lNum),
		vdb.NewIntColumn("l_quantity", lQty),
		vdb.NewFloatColumn("l_extendedprice", lPrice),
		vdb.NewFloatColumn("l_discount", lDisc),
		vdb.NewFloatColumn("l_tax", lTax),
		vdb.NewStringColumn("l_returnflag", lRet),
		vdb.NewStringColumn("l_linestatus", lStatus),
		vdb.NewIntColumn("l_shipdate", lShip),
		vdb.NewIntColumn("l_commitdate", lCommit),
		vdb.NewIntColumn("l_receiptdate", lReceipt),
		vdb.NewStringColumn("l_shipmode", lMode),
		vdb.NewStringColumn("l_shipinstruct", lInstruct),
	)
	if err != nil {
		return nil, nil, err
	}
	return orders, lineitem, nil
}
