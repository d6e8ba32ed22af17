//! Sampling configuration (temperature shaping).

use crate::model::Distribution;

/// Controls how a predictive distribution is shaped before sampling.
///
/// The paper evaluates its models at temperatures 0.2 and 0.8 and keeps the
/// best result, with generation capped at 2 048 tokens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplerConfig {
    /// Softmax temperature (0 = greedy).
    pub temperature: f64,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self { temperature: 0.8 }
    }
}

impl SamplerConfig {
    /// Greedy decoding: temperature 0 keeps only the argmax.
    pub fn greedy() -> Self {
        Self::with_temperature(0.0)
    }

    /// Sampling at the given temperature.
    pub fn with_temperature(temperature: f64) -> Self {
        Self { temperature }
    }

    /// Applies the temperature to a distribution.
    pub fn shape(&self, distribution: &Distribution) -> Distribution {
        distribution.with_temperature(self.temperature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_shape_keeps_only_argmax() {
        let d = Distribution::from_weights(vec![(1, 0.5), (2, 0.3), (3, 0.2)]);
        let shaped = SamplerConfig::greedy().shape(&d);
        assert_eq!(shaped.entries().len(), 1);
        assert_eq!(shaped.argmax(), Some(1));
    }

    #[test]
    fn default_is_temperature_point_eight() {
        let s = SamplerConfig::default();
        assert!((s.temperature - 0.8).abs() < 1e-12);
    }
}
