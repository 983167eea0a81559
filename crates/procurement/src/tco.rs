//! The Total-Cost-of-Ownership model.

use jubench_cluster::Machine;

/// TCO parameters over the system lifetime (or rental horizon). Each
/// backend carries its own energy price, lifetime, and rental rate —
/// on-prem machines amortize capex and pay electricity, cloud machines
/// pay per node-hour with zero capex.
#[derive(Debug, Clone, Copy)]
pub struct TcoModel {
    /// Capital expenditure (system price), in EUR. Zero for rented
    /// (cloud) capacity.
    pub capex_eur: f64,
    /// Hourly rental for the whole machine, in EUR per hour of utilized
    /// operation. Zero for owned systems.
    pub rental_eur_per_hour: f64,
    /// Electricity price, EUR per kWh.
    pub electricity_eur_per_kwh: f64,
    /// Cooling/infrastructure overhead on top of IT power (PUE − 1 adds
    /// ~10–30 % on modern direct-liquid-cooled systems).
    pub pue: f64,
    /// System lifetime in years.
    pub lifetime_years: f64,
    /// Average utilization (fraction of the lifetime the machine draws
    /// load power and runs workloads).
    pub utilization: f64,
}

impl TcoModel {
    /// Typical European HPC-site parameters of the procurement period.
    pub fn eurohpc_defaults(capex_eur: f64) -> Self {
        TcoModel {
            capex_eur,
            rental_eur_per_hour: 0.0,
            electricity_eur_per_kwh: 0.25,
            pue: 1.1,
            lifetime_years: 6.0,
            utilization: 0.85,
        }
    }

    /// The TCO model of a machine backend, derived from its own
    /// [`jubench_cluster::CostModel`]: capex and rental scale with the
    /// partition's node count; energy price, PUE, lifetime, and
    /// utilization come from the backend's economics.
    pub fn for_machine(machine: &Machine) -> Self {
        let c = machine.cost;
        TcoModel {
            capex_eur: c.capex_per_node_eur * machine.nodes as f64,
            rental_eur_per_hour: c.rental_eur_per_node_hour * machine.nodes as f64,
            electricity_eur_per_kwh: c.electricity_eur_per_kwh,
            pue: c.pue,
            lifetime_years: c.lifetime_years,
            utilization: c.utilization,
        }
    }

    /// Lifetime energy of a machine in kWh.
    pub(crate) fn lifetime_energy_kwh(&self, machine: &Machine) -> f64 {
        let it_power_kw = machine.nodes as f64 * machine.node.power_w / 1000.0;
        it_power_kw * self.pue * self.utilization * self.lifetime_years * 365.25 * 24.0
    }

    /// Operational expenditure in EUR: electricity plus rental over the
    /// utilized hours of the horizon.
    pub(crate) fn opex_eur(&self, machine: &Machine) -> f64 {
        let utilized_hours = self.utilization * self.lifetime_years * 365.25 * 24.0;
        self.lifetime_energy_kwh(machine) * self.electricity_eur_per_kwh
            + self.rental_eur_per_hour * utilized_hours
    }

    /// Full TCO.
    pub fn evaluate(&self, machine: &Machine) -> TcoResult {
        let opex = self.opex_eur(machine);
        TcoResult {
            capex_eur: self.capex_eur,
            opex_eur: opex,
            total_eur: self.capex_eur + opex,
            productive_seconds: self.utilization * self.lifetime_years * 365.25 * 24.0 * 3600.0,
        }
    }
}

/// The evaluated cost structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcoResult {
    pub capex_eur: f64,
    pub opex_eur: f64,
    pub total_eur: f64,
    /// Seconds of productive operation over the lifetime.
    pub productive_seconds: f64,
}

impl TcoResult {
    /// The value-for-money metric: reference workloads executed per
    /// million EUR of TCO, given the (weighted mean) time per workload.
    pub fn workloads_per_million_eur(&self, seconds_per_workload: f64) -> f64 {
        let workloads = self.productive_seconds / seconds_per_workload;
        workloads / (self.total_eur / 1.0e6)
    }
}

/// Energy-to-solution of one benchmark execution, in joules: IT power of
/// the partition over the runtime.
pub fn energy_to_solution_j(machine: &Machine, runtime_s: f64) -> f64 {
    machine.nodes as f64 * machine.node.power_w * runtime_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_a_substantial_cost_share() {
        // §II-B: "costs for electricity and cooling are a substantial part
        // of the overall project budget". For a 500 M€ exascale system the
        // opex must land in the tens-of-percent range.
        let machine = Machine::jupiter_proposal();
        let tco = TcoModel::eurohpc_defaults(500.0e6);
        let result = tco.evaluate(&machine);
        let share = result.opex_eur / result.total_eur;
        assert!((0.1..0.6).contains(&share), "opex share {share}");
    }

    #[test]
    fn lifetime_energy_scales_with_nodes() {
        let tco = TcoModel::eurohpc_defaults(1.0e6);
        let small = tco.lifetime_energy_kwh(&Machine::juwels_booster().partition(100));
        let large = tco.lifetime_energy_kwh(&Machine::juwels_booster().partition(900));
        assert!((large / small - 9.0).abs() < 1e-9);
    }

    #[test]
    fn value_for_money_prefers_faster_workloads() {
        let machine = Machine::juwels_booster();
        let result = TcoModel::eurohpc_defaults(100.0e6).evaluate(&machine);
        let slow = result.workloads_per_million_eur(1000.0);
        let fast = result.workloads_per_million_eur(500.0);
        assert!((fast / slow - 2.0).abs() < 1e-12);
    }

    #[test]
    fn energy_to_solution_scales_with_partition_and_time() {
        let m = Machine::juwels_booster().partition(8);
        let e = energy_to_solution_j(&m, 498.0);
        // 8 nodes × 2.5 kW × 498 s ≈ 9.96 MJ ≈ 2.77 kWh.
        assert!((e - 8.0 * 2500.0 * 498.0).abs() < 1.0);
        assert!(energy_to_solution_j(&m, 996.0) > e);
    }

    #[test]
    fn for_machine_prices_the_partition() {
        let full = TcoModel::for_machine(&Machine::juwels_booster());
        let half = TcoModel::for_machine(&Machine::juwels_booster().partition(468));
        assert!((full.capex_eur / half.capex_eur - 2.0).abs() < 1e-12);
        assert_eq!(full.rental_eur_per_hour, 0.0);
        assert_eq!(full.electricity_eur_per_kwh, 0.25);
    }

    #[test]
    fn cloud_backends_pay_rent_instead_of_capex() {
        let mut cloud = Machine::juwels_booster().partition(8);
        cloud.cost = jubench_cluster::CostModel::cloud(28.0);
        let tco = TcoModel::for_machine(&cloud);
        assert_eq!(tco.capex_eur, 0.0);
        assert!((tco.rental_eur_per_hour - 8.0 * 28.0).abs() < 1e-9);
        // Zero electricity price: the whole opex is rent.
        let result = tco.evaluate(&cloud);
        assert_eq!(result.capex_eur, 0.0);
        let utilized_hours = tco.utilization * tco.lifetime_years * 365.25 * 24.0;
        assert!((result.opex_eur - tco.rental_eur_per_hour * utilized_hours).abs() < 1e-6);
    }

    #[test]
    fn pue_inflates_opex() {
        let machine = Machine::juwels_booster();
        let mut a = TcoModel::eurohpc_defaults(1.0e6);
        a.pue = 1.0;
        let mut b = a;
        b.pue = 1.3;
        assert!((b.opex_eur(&machine) / a.opex_eur(&machine) - 1.3).abs() < 1e-12);
    }
}
