package repro.core

import org.scalatest.funsuite.AnyFunSuite

class HcQuerySpec extends AnyFunSuite {

  test("s and t must be distinct") {
    intercept[IllegalArgumentException](HcQuery(1L, 1L, 4))
  }

  test("k must be at least 2 (paper assumption)") {
    intercept[IllegalArgumentException](HcQuery(1L, 2L, 1))
    HcQuery(1L, 2L, 2) // ok
  }

  private val plan = PlanInfo("DFS(forced)", -1, None, None, None)

  test("throughput is results per second") {
    // Both count the query from its start: index build, optimization and
    // enumeration (150 + 20 + 80 ms here).
    val e = EnumResult(500, Seq(500), elapsedMs = 80.0, Some(10.0), timedOut = false, 0, None)
    val r = PathEnumResult(e, plan, indexBuildMs = 150.0, optimizeMs = 20.0, 0, 0)
    assert(math.abs(r.throughput - 2000.0) < 1e-9)
    assert(math.abs(r.responseMs - 180.0) < 1e-9)
    // With no response recorded (a JOIN plan), the response is the query.
    assert(math.abs(r.copy(`enum` = e.copy(responseMs = None)).responseMs - 250.0) < 1e-9)
  }

  test("throughput of an instant run is zero, not NaN") {
    val e = EnumResult(0, Seq.empty, elapsedMs = 0.0, None, timedOut = false, 0, None)
    val r = PathEnumResult(e, plan, 0.0, 0.0, 0, 0)
    assert(r.throughput == 0.0 && r.responseMs == 0.0)
  }

  test("DpEstimate helpers on a hand example") {
    // k=3, forward = (1, 2, 4, 8), backward = (8, 3, 2, 1)
    val e = DpEstimate(Seq(1L, 2L, 4L, 8L), Seq(8L, 3L, 2L, 1L), 0.0)
    assert(e.k == 3)
    assert(e.tDfs == 2 + 4 + 8)
    assert(e.bestCut == 1) // f(1)+b(1)=5 < f(2)+b(2)=6
    assert(e.tJoin == 8 + 2 + (3 + 2 + 1))
  }
}
