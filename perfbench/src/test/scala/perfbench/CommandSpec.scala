package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._
import scala.sys.process._

/** The one command prints every metric that BENCHMARK.json names, by name,
  * for every workload, untraced and traced. Runs the command end to end
  * with a one-second measurement window. */
class CommandSpec extends AnyFunSuite {

  private val repo = new java.io.File("..").getCanonicalFile
  private val mapper = new ObjectMapper()
  private val spec = mapper.readTree(new java.io.File(repo, "BENCHMARK.json"))

  private def entries(key: String) = spec.get(key).elements().asScala.toSeq
  private def units(key: String): Map[String, String] =
    entries(key).map(m => m.get("name").asText -> m.get("unit").asText).toMap

  test("BENCHMARK.json names the harness's workloads") {
    assert(entries("workloads").map(_.get("name").asText) == Workloads.all.map(_.name))
  }

  for (w <- Workloads.all.map(_.name); trace <- Seq(0, 1)) {
    test(s"$w --trace $trace prints every ${if (trace == 0) "end_to_end" else "per_layer"} metric") {
      val cmd = spec.get("command").elements().asScala.map(_.asText).toSeq ++
        Seq("--workload", w, "--seed", "1", "--seconds", "1", "--trace", trace.toString)
      val out = Process(cmd, repo).!!.trim.linesIterator.toSeq
      val result = mapper.readTree(out.last)
      assert(result.get("correct").asBoolean)
      assert(result.get("failed").asInt == 0 && result.get("attempted").asInt >= 1)
      val expected = units(if (trace == 0) "end_to_end" else "per_layer")
      val metrics = result.get("metrics")
      assert(metrics.fieldNames().asScala.toSet == expected.keySet)
      for ((m, unit) <- expected) {
        assert(metrics.get(m).get("value").isNumber, m)
        assert(metrics.get(m).get("unit").asText == unit, m)
        assert(out.exists(_.startsWith(m + " ")), s"$m is not printed by name")
      }
    }
  }
}
